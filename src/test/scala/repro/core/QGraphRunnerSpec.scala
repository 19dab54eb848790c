package repro.core

import repro.SparkSpec
import repro.TestFixtures
import repro.partition.{DomainPartitioner, HashPartitioner}
import repro.qcut.IlsConfig
import repro.sim.CostModel
import repro.sync.BarrierMode

class QGraphRunnerSpec extends SparkSpec {
  private val g = TestFixtures.small
  private val k = 4
  private lazy val traces = TestFixtures.smallSsspTraces

  private def ctrl = ControllerConfig(
    muSimSeconds = 1e9, maxQueries = 128, delta = 0.25,
    ils = IlsConfig(budgetMs = 1500, maxRounds = 40, seed = 2))

  private def cfg(name: String, adaptive: Boolean, barrier: BarrierMode = BarrierMode.Hybrid) =
    RunConfig(name, k, barrier, adaptive, CostModel.default, ctrl)

  test("static run covers every query exactly once") {
    val r = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash", adaptive = false))
    assert(r.queryLatencies.keySet === TestFixtures.smallSsspQueries.map(_.qid).toSet)
    assert(r.batches.size === traces.size)
    assert(r.repartitions === 0)
  }

  test("per-batch sums are consistent with per-query latencies") {
    val r = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash", adaptive = false))
    assert(math.abs(r.batches.map(_.sumLatency).sum - r.totalLatency) < 1e-6)
  }

  test("adaptive run triggers repartitioning on a hash-partitioned graph") {
    val r = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash+qcut", adaptive = true))
    assert(r.repartitions > 0, "hash locality is far below phi; Q-cut must fire")
    assert(r.ilsRuns.nonEmpty)
  }

  test("adaptivity improves locality over the static hash run (Fig 6f shape)") {
    val stat = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash", adaptive = false))
    val adapt = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash+qcut", adaptive = true))
    assert(adapt.batches.last.locality > stat.batches.last.locality,
      s"adaptive ${adapt.batches.last.locality} vs static ${stat.batches.last.locality}")
  }

  test("adaptivity reduces later-batch latency versus static hash (Fig 5a shape)") {
    val stat = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash", adaptive = false))
    val adapt = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash+qcut", adaptive = true))
    val lastStat = stat.batches.last.avgLatency
    val lastAdapt = adapt.batches.last.avgLatency
    assert(lastAdapt < lastStat, s"adaptive $lastAdapt vs static $lastStat")
  }

  test("hybrid barrier beats shared-global BSP barriers (Fig 6d shape)") {
    for (init <- Seq(HashPartitioner.assign(g, k), DomainPartitioner.assign(g, k))) {
      val hybrid = QGraphRunner.run(init, traces, cfg("h", adaptive = false))
      val bsp = QGraphRunner.run(init, traces, cfg("b", adaptive = false, BarrierMode.SharedGlobal))
      assert(hybrid.totalLatency < bsp.totalLatency)
    }
  }

  test("per-query-global sits between hybrid and shared-global for localized work") {
    val init = DomainPartitioner.assign(g, k)
    val hybrid = QGraphRunner.run(init, traces, cfg("h", adaptive = false))
    val pqg = QGraphRunner.run(init, traces, cfg("p", adaptive = false, BarrierMode.PerQueryGlobal))
    assert(hybrid.totalLatency <= pqg.totalLatency + 1e-9)
  }

  test("runner is deterministic") {
    val a = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash+qcut", adaptive = true))
    val b = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash+qcut", adaptive = true))
    assert(a.queryLatencies === b.queryLatencies)
    assert(a.batches === b.batches)
  }

  test("a static run equals its one-batch runs in order, and itself, at k = 2, 8, 16 in every mode") {
    // Latencies as (qid, raw bits), in the map's iteration order.
    def bits(m: Map[Int, Double]) = m.toList.map { case (q, l) => q -> java.lang.Double.doubleToRawLongBits(l) }
    for (ts <- Seq(traces, TestFixtures.smallPoiTraces); k <- Seq(2, 8, 16);
         mode <- Seq(BarrierMode.Hybrid, BarrierMode.PerQueryGlobal, BarrierMode.SharedGlobal)) {
      val assign = HashPartitioner.assign(g, k)
      val c = RunConfig(s"hash/${mode.name}/k=$k", k, mode)
      val r = QGraphRunner.run(assign, ts, c)
      val one = ts.map(t => QGraphRunner.run(assign, Seq(t), c))
      assert(r.batches === one.flatMap(_.batches), c.name)
      assert(bits(r.queryLatencies) === bits(one.flatMap(_.queryLatencies).toMap), c.name)
      val again = QGraphRunner.run(assign, ts, c)
      assert(again === r && bits(again.queryLatencies) === bits(r.queryLatencies), c.name)
    }
  }

  test("domain workload imbalance exceeds hash imbalance (Fig 6e shape)") {
    val h = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash", adaptive = false))
    val d = QGraphRunner.run(DomainPartitioner.assign(g, k), traces, cfg("domain", adaptive = false))
    val avgImb = (r: RunResult) => r.batches.map(_.imbalance).sum / r.batches.size
    assert(avgImb(d) > avgImb(h))
  }

  test("the repartition barrier advances the simulated clock") {
    val adapt = QGraphRunner.run(HashPartitioner.assign(g, k), traces, cfg("hash+qcut", adaptive = true))
    val withMoves = adapt.batches.filter(_.repartitioned)
    assert(withMoves.nonEmpty)
    withMoves.foreach(b => assert(b.movedVertices > 0))
  }

  test("run rejects an empty trace list") {
    intercept[IllegalArgumentException] {
      QGraphRunner.run(HashPartitioner.assign(g, k), Seq.empty, cfg("x", adaptive = false))
    }
  }
}
