package repro.exp

import repro.{SparkSpec, TestFixtures}
import repro.core.{QGraphRunner, RunConfig}
import repro.partition.HashPartitioner
import repro.sim.CostModel
import repro.sync.BarrierMode

/** End-to-end harness tests at unit-test scale: every figure harness runs
  * and produces the qualitative shape the paper reports (the bench-scale
  * checks, pins and shape gates, are in `GoldenFigureSpec`).
  */
class ExperimentsSpec extends SparkSpec {
  private lazy val s = ExpScale(TestFixtures.small, nQueries = 32, nDisturb = 16, k = 4, batchSize = 8, maxIter = 400)

  test("trace cache returns the identical object on re-request") {
    val a = Traces.sssp(spark, s)
    val b = Traces.sssp(spark, s)
    assert(a eq b, "engine must run once per (network, workload)")
  }

  test("traces persist to disk for cross-JVM reuse") {
    Traces.sssp(spark, s)
    val dir = Traces.cacheFile(Traces.key(s, "sssp", s.nQueries)).getParentFile
    assert(dir.isDirectory, s"missing trace dir ${dir.getAbsolutePath}")
    assert(dir.listFiles().exists(f => f.getName.contains("sssp") && f.length() > 0))
  }

  test("a truncated trace cache file is reported on stderr, not silently skipped") {
    val f = java.io.File.createTempFile("traces", ".bin")
    try {
      val out = new java.io.ObjectOutputStream(new java.io.FileOutputStream(f))
      try out.writeObject(Traces.sssp(spark, s)) finally out.close()
      assert(Traces.diskLoad(f) === Some(Traces.sssp(spark, s)))
      val bytes = java.nio.file.Files.readAllBytes(f.toPath)
      java.nio.file.Files.write(f.toPath, bytes.take(bytes.length / 2))
      val err = new java.io.ByteArrayOutputStream
      assert(Console.withErr(err)(Traces.diskLoad(f)).isEmpty)
      assert(err.toString.contains(f.toString) && err.toString.contains("Exception"), err.toString)
    } finally f.delete()
  }

  test("a trace cache file written under another maxIter is not read") {
    val scale = s.copy(nQueries = 8, seed = 77) // a workload no other test caches
    val f = Traces.cacheFile(Traces.key(scale.copy(maxIter = scale.maxIter + 1), "sssp", scale.nQueries))
    val planted = Vector(TestFixtures.trace(Nil, batchId = -1))
    f.getParentFile.mkdirs()
    val out = new java.io.ObjectOutputStream(new java.io.FileOutputStream(f))
    try out.writeObject(planted) finally out.close()
    try {
      assert(Traces.diskLoad(f) === Some(planted))
      val traces = Traces.sssp(spark, scale)
      assert(traces.map(_.queries.size).sum === scale.nQueries)
    } finally f.delete()
  }

  test("sssp workload produces the configured batches") {
    val traces = Traces.sssp(spark, s)
    assert(traces.map(_.queries.size).sum === s.nQueries)
    assert(traces.forall(_.queries.size <= s.batchSize))
  }

  test("disturbance phase appends disjoint qids and batch ids") {
    val base = Traces.sssp(spark, s)
    val dist = Traces.ssspDisturbance(spark, s)
    val baseQids = base.flatMap(_.queries.map(_.qid)).toSet
    val distQids = dist.flatMap(_.queries.map(_.qid)).toSet
    assert(baseQids.intersect(distQids).isEmpty)
    assert(dist.map(_.batchId).min > base.map(_.batchId).max)
  }

  test("adaptivity report covers all four strategies over all batches") {
    val rep = Experiments.adaptivity(spark, s)
    assert(rep.batchSeries.keySet === Set("Hash", "Domain", "Hash+Q-cut", "Domain+Q-cut"))
    val nBatches = rep.batchSeries("Hash").size
    assert(rep.batchSeries.values.forall(_.size === nBatches))
    assert(nBatches > rep.nBatchesPhase1, "disturbance batches must be present")
  }

  test("Q-cut on Hash reduces latency in some batch (Fig 5a shape)") {
    val rep = Experiments.adaptivity(spark, s)
    assert(rep.maxReductionVsHash > 0.0,
      s"series: ${rep.batchSeries("Hash")} vs ${rep.batchSeries("Hash+Q-cut")}")
  }

  test("totals report computes reductions; Q-cut wins phase 1 (Fig 6a shape)") {
    val rep = Experiments.adaptivity(spark, s)
    val t = Experiments.totals("tiny", rep.fourWay)
    assert(t.totals.size === 4)
    // The steady-state (phase 1, intra-urban) totals carry the Fig 6a claim;
    // the 2-batch tiny-scale disturbance phase is too short for the
    // controller to re-adapt and is assessed at bench scale (Fig 5a).
    val p1 = (n: String) => rep.batchSeries(n).take(rep.nBatchesPhase1).sum
    assert(p1("Hash+Q-cut") < p1("Hash"),
      s"phase-1: qcut ${p1("Hash+Q-cut")} vs hash ${p1("Hash")}")
  }

  test("hybrid barrier beats BSP-global for both partitionings (Fig 6d shape)") {
    val rep = Experiments.barrierComparison(spark, s, nQueries = 16)
    assert(rep.speedupHybrid("Hash") > 1.0, rep.totals.toString)
    assert(rep.speedupHybrid("Domain") > 1.0, rep.totals.toString)
    assert(rep.domainOverHash("hybrid") > 1.0, "Domain must beat Hash under hybrid barriers")
  }

  test("quality report: Domain most local, Hash most balanced (Fig 6e/6f shape)") {
    val rep = Experiments.adaptivity(spark, s)
    val q = Experiments.quality(rep)
    assert(q.endOfRunTail(q.locality, "Domain") > q.endOfRunTail(q.locality, "Hash"))
    assert(q.endOfRunTail(q.imbalance, "Hash") < q.endOfRunTail(q.imbalance, "Domain"))
    assert(q.endOfRunTail(q.locality, "Hash+Q-cut") > q.endOfRunTail(q.locality, "Hash"))
  }

  test("ILS convergence history is recorded with the 2s budget (Fig 6g shape)") {
    val ils = Experiments.ilsConvergence(spark, s)
    assert(ils.history.nonEmpty)
    assert(ils.bestCost <= ils.initialCost)
    val costs = ils.history.map(_.bestCost)
    assert(costs.zip(costs.tail).forall { case (a, b) => b <= a })
  }

  test("scalability harness produces a total per (strategy, k)") {
    val rep = Experiments.scalability(spark, s, ks = Seq(2, 4))
    assert(rep.totals.size === 8)
    rep.totals.values.foreach(v => assert(v > 0.0))
  }

  test("LDG comparison reports imbalance above hash (Section 4.1 remark)") {
    val rep = Experiments.ldgComparison(spark, s)
    assert(rep.ldgImbalance > rep.hashImbalance,
      s"LDG ${rep.ldgImbalance} vs Hash ${rep.hashImbalance}")
  }

  test("default controller settings make a bench-scale adaptive run bit-reproducible") {
    // Hash+Q-cut at k=8 on the BW-lite phase-1 traces, as Figs 5a/6a run it:
    // the ILS is bounded by its round cap, not by the wall clock.
    val bw = ExpScale.bw
    val traces = Traces.sssp(spark, bw)
    val cfg = RunConfig("Hash+Q-cut", bw.k, BarrierMode.Hybrid, adaptive = true, CostModel.default,
      Experiments.controllerConfig())
    val assign = HashPartitioner.assign(bw.network, bw.k)
    val a = QGraphRunner.run(assign, traces, cfg)
    val b = QGraphRunner.run(assign, traces, cfg)
    assert(a.repartitions > 0)
    assert(a.queryLatencies === b.queryLatencies)
    assert(a.batches === b.batches)
  }

  test("full-graph baseline activates far more vertices (GraphX remark)") {
    val rep = Experiments.fullGraphBaseline(spark, s, nQueries = 2)
    assert(rep.activationRatio > 3.0, s"ratio ${rep.activationRatio}")
    assert(rep.latencyRatio > 1.0)
  }
}
