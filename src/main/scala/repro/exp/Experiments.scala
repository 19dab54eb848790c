package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.engine._
import repro.graph.RoadNetwork
import repro.partition._
import repro.qcut.IlsConfig
import repro.sim.CostModel
import repro.sync.BarrierMode
import repro.workload.QueryWorkload

/** Scale of one experiment instance. Benches use the BW-lite / GY-lite
  * networks with 256-query workloads (scaled from the paper's 2048, same
  * 16-query batches); unit tests use a 24x24 grid.
  */
final case class ExpScale(
    network: RoadNetwork,
    nQueries: Int,
    nDisturb: Int,
    k: Int,
    batchSize: Int = 16,
    maxIter: Int = 3000,
    seed: Long = 1)

object ExpScale {
  /** Baden-Wuerttemberg stand-in, Section 4.2 experiments. The disturbance
    * phase is 8 batches (the paper's 496 disturbance queries are ~31
    * batches) so the controller has room to re-adapt.
    */
  def bw: ExpScale = ExpScale(RoadNetwork.bwLite, nQueries = 256, nDisturb = 128, k = 8)
  /** Germany stand-in (Fig. 5b / 6b). */
  def gy: ExpScale = ExpScale(RoadNetwork.gyLite, nQueries = 256, nDisturb = 0, k = 8)
  /** Unit-test scale. */
  def tiny: ExpScale = ExpScale(
    RoadNetwork.generate("small-24", side = 24, nCities = 5, tagRate = 40, seed = 11),
    nQueries = 32, nDisturb = 16, k = 4, batchSize = 8, maxIter = 400)
}

/** Process-wide and on-disk cache of engine traces: traces are
  * deterministic in (network, workload) and partition-invariant, so every
  * (partitioner, barrier, k, adaptivity) configuration replays the same
  * trace — the engine runs once per (network, workload) and the result is
  * persisted under `target/traces/` for subsequent JVMs (benches, jobs,
  * calibration sweeps).
  */
object Traces {
  private val cache = scala.collection.concurrent.TrieMap.empty[String, Vector[BatchTrace]]

  // Anchored via -Dqgraph.trace.dir (set by build.sbt to the repo root's
  // target/traces for every forked JVM) so the root and bench subprojects
  // share one cache; overridable via QGRAPH_TRACE_DIR.
  private val diskDir = new java.io.File(
    sys.props.get("qgraph.trace.dir")
      .orElse(sys.env.get("QGRAPH_TRACE_DIR"))
      .getOrElse("target/traces"))

  private[exp] def cacheFile(key: String) = new java.io.File(diskDir, key.replace('/', '_') + ".bin")

  /** Cache key of a trace set: the network, `kind`, the query count `n`,
    * batch size, seed, the engine's iteration bound and the trace format.
    */
  private[exp] def key(s: ExpScale, kind: String, n: Int): String =
    s"${s.network.name}-${s.network.structureHash}/$kind/$n/${s.batchSize}/${s.seed}/${s.maxIter}" +
      s"/f${BatchTrace.Format}"

  /** Reads one cache file: None when it does not exist. A file that cannot
    * be read (truncated, or written by an older program whose classes have
    * changed) is reported on stderr and is also None, so it is rebuilt.
    */
  private[exp] def diskLoad(f: java.io.File): Option[Vector[BatchTrace]] =
    if (!f.isFile) None
    else try {
      val in = new java.io.ObjectInputStream(
        new java.io.BufferedInputStream(new java.io.FileInputStream(f)))
      try Some(in.readObject().asInstanceOf[Vector[BatchTrace]]) finally in.close()
    } catch {
      case e: Exception =>
        Console.err.println(s"[Traces] unreadable trace cache file $f ($e); rebuilding it")
        None
    }

  private def diskStore(f: java.io.File, traces: Vector[BatchTrace]): Unit = {
    diskDir.mkdirs()
    val out = new java.io.ObjectOutputStream(
      new java.io.BufferedOutputStream(new java.io.FileOutputStream(f)))
    try out.writeObject(traces) finally out.close()
  }

  /** Engine traces of the workload `queries`, cached under `key(s, kind, n)`. */
  private def traceFor(spark: SparkSession, s: ExpScale, kind: String, n: Int)(
      queries: => Seq[Query]): Vector[BatchTrace] = {
    val k = key(s, kind, n)
    cache.getOrElseUpdate(k, diskLoad(cacheFile(k)).getOrElse {
      val edges = BspEngine.prepareEdges(spark, s.network)
      val t = BspEngine.runWorkload(spark, edges, s.network.isTagged, queries, s.maxIter,
        astarSide = Some(s.network.side))
      diskStore(cacheFile(k), t)
      t
    })
  }

  /** Intra-urban hotspot SSSP workload traces. */
  def sssp(spark: SparkSession, s: ExpScale): Vector[BatchTrace] =
    traceFor(spark, s, "sssp", s.nQueries) {
      QueryWorkload.generate(s.network, s.nQueries, QueryKind.Sssp, batchSize = s.batchSize, seed = s.seed)
    }

  /** The Fig. 5a disturbance: inter-urban SSSP between neighbouring cities,
    * appended after the intra-urban phase with fresh qids/batches.
    */
  def ssspDisturbance(spark: SparkSession, s: ExpScale): Vector[BatchTrace] =
    traceFor(spark, s, "sssp-inter", s.nDisturb) {
      require(s.nDisturb > 0, "scale has no disturbance phase")
      val nBatches = (s.nQueries + s.batchSize - 1) / s.batchSize
      QueryWorkload.generate(s.network, s.nDisturb, QueryKind.Sssp,
        batchSize = s.batchSize, interUrban = true, seed = s.seed + 1000,
        qidOffset = s.nQueries, batchOffset = nBatches)
    }

  /** Hotspot POI workload traces (Fig. 6c). */
  def poi(spark: SparkSession, s: ExpScale): Vector[BatchTrace] =
    traceFor(spark, s, "poi", s.nQueries) {
      QueryWorkload.generate(s.network, s.nQueries, QueryKind.Poi, batchSize = s.batchSize, seed = s.seed + 2000)
    }
}

/** One harness per evaluation artefact. Every function is deterministic in
  * its inputs: the default ILS is bounded by rounds, and its wall-clock cap
  * is never reached at bench scale.
  */
object Experiments {

  /** Controller settings mirroring Section 4.1: Φ=0.7, δ=0.25, 4k Karger
    * clusters. The monitoring window is count-capped at 64 queries (the
    * paper's μ=240 s / ≤128 queries holds "a few dozen queries"; our
    * workload is 8x smaller than the paper's 2048, and a 4-batch horizon
    * keeps the stats as fresh as their tumbling μ does). The ILS stops
    * after 60 rounds, a deterministic bound, so every figure is
    * reproducible bit for bit; the default 60 s wall-clock budget is only a
    * safety cap that no bench run reaches (Fig. 6g passes the paper's 2 s).
    */
  def controllerConfig(ilsBudgetMs: Long = 60000, seed: Long = 17): ControllerConfig =
    ControllerConfig(
      phi = 0.7, muSimSeconds = 1e12, maxQueries = 64, delta = 0.25, clusterFactor = 4,
      ils = IlsConfig(budgetMs = ilsBudgetMs, maxRounds = 60, seed = seed))

  /** The four partitioning strategies of Figs. 5-7. */
  final case class FourWay(
      hash: RunResult, domain: RunResult, hashQcut: RunResult, domainQcut: RunResult) {
    def all: Seq[(String, RunResult)] = Seq(
      "Hash" -> hash, "Domain" -> domain,
      "Hash+Q-cut" -> hashQcut, "Domain+Q-cut" -> domainQcut)
  }

  /** The four strategies at `k` workers, hybrid barriers, default costs and controller. */
  def fourWay(g: RoadNetwork, traces: Vector[BatchTrace], k: Int): FourWay = {
    val hashA = HashPartitioner.assign(g, k)
    val domA = DomainPartitioner.assign(g, k)
    def run(name: String, assign: Array[Int], adaptive: Boolean): RunResult =
      QGraphRunner.run(assign, traces, RunConfig(name, k, adaptive = adaptive, ctrl = controllerConfig()))
    FourWay(run("Hash", hashA, adaptive = false), run("Domain", domA, adaptive = false),
      run("Hash+Q-cut", hashA, adaptive = true), run("Domain+Q-cut", domA, adaptive = true))
  }

  /** Figs. 5a/5b: per-batch average latency over time, normalised by the
    * static-Hash mean (the paper normalises by Q-Graph on static Hash), with
    * the disturbance phase appended when the scale defines one.
    */
  final case class AdaptivityReport(
      nBatchesPhase1: Int,
      batchSeries: Map[String, Vector[Double]], // strategy -> per-batch avg latency
      fourWay: FourWay) {
    private def phase(name: String, from: Int, until: Int): Vector[Double] =
      batchSeries(name).slice(from, until)

    /** Best (largest) latency reduction of Hash+Q-cut vs static Hash over
      * matching batches, phase 1.
      */
    def maxReductionVsHash: Double = maxReduction("Hash", "Hash+Q-cut", 0, nBatchesPhase1)
    /** Best reduction of Domain+Q-cut vs static Domain, phase 1. */
    def maxReductionVsDomain: Double = maxReduction("Domain", "Domain+Q-cut", 0, nBatchesPhase1)

    def maxReduction(base: String, opt: String, from: Int, until: Int): Double = {
      val b = phase(base, from, until); val o = phase(opt, from, until)
      b.zip(o).map { case (x, y) => 1.0 - y / x }.max
    }

    /** Figs. 6a/6b: summed latency per strategy over the phase-1
      * (steady-state intra-urban) batches.
      */
    def phase1Totals(name: String): TotalsReport =
      TotalsReport(name, fourWay.all.map { case (n, r) =>
        n -> r.batches.take(nBatchesPhase1).map(_.sumLatency).sum
      }.toMap)
  }

  def adaptivity(spark: SparkSession, s: ExpScale): AdaptivityReport = {
    val base = Traces.sssp(spark, s)
    val traces = if (s.nDisturb > 0) base ++ Traces.ssspDisturbance(spark, s) else base
    val fw = fourWay(s.network, traces, s.k)
    AdaptivityReport(base.size, fw.all.map { case (n, r) => n -> r.batches.map(_.avgLatency) }.toMap, fw)
  }

  /** Figs. 6a/6b/6c: summed latency over the whole workload per strategy. */
  final case class TotalsReport(name: String, totals: Map[String, Double]) {
    def reduction(base: String, opt: String): Double = 1.0 - totals(opt) / totals(base)
  }

  def totals(name: String, fw: FourWay): TotalsReport =
    TotalsReport(name, fw.all.map { case (n, r) => n -> r.totalLatency }.toMap)

  /** Fig. 6d: total latency of 64 SSSP queries under {BSP-global, hybrid}
    * barriers x {Hash, Domain} static partitionings.
    */
  final case class BarrierReport(totals: Map[(String, String), Double]) {
    def speedupHybrid(p: String): Double = totals((p, "BSP-global")) / totals((p, "hybrid"))
    def domainOverHash(b: String): Double = totals(("Hash", b)) / totals(("Domain", b))
  }

  def barrierComparison(spark: SparkSession, s: ExpScale, nQueries: Int = 64): BarrierReport = {
    val traces = Traces.sssp(spark, s).flatMap(t => if (t.batchId * s.batchSize < nQueries) Some(t) else None)
    val out = for {
      (pName, assign) <- Seq("Hash" -> HashPartitioner.assign(s.network, s.k),
        "Domain" -> DomainPartitioner.assign(s.network, s.k))
      (bName, mode) <- Seq("BSP-global" -> BarrierMode.SharedGlobal, "hybrid" -> BarrierMode.Hybrid)
    } yield {
      val r = QGraphRunner.run(assign, traces,
        RunConfig(s"$pName/$bName", s.k, mode, adaptive = false))
      (pName, bName) -> r.totalLatency
    }
    BarrierReport(out.toMap)
  }

  /** Figs. 6e/6f: workload imbalance (sliding-window smoothed, as the paper
    * measures 60 s windows with a sliding average) and query locality
    * series, per batch, with two 4-batch tail averages of each series.
    */
  final case class QualityReport(
      nBatchesPhase1: Int,
      imbalance: Map[String, Vector[Double]],
      locality: Map[String, Vector[Double]]) {
    /** Mean of the last 4 phase-1 batches: the steady state the gates check. */
    def steadyStateTail(m: Map[String, Vector[Double]], name: String): Double =
      mean(m(name).slice(nBatchesPhase1 - 4, nBatchesPhase1))
    /** Mean of the last 4 batches of the run, in the disturbance if any. */
    def endOfRunTail(m: Map[String, Vector[Double]], name: String): Double = mean(m(name).takeRight(4))
    private def mean(v: Vector[Double]): Double = v.sum / v.size
  }

  def quality(rep: AdaptivityReport): QualityReport = QualityReport(
    rep.nBatchesPhase1,
    rep.fourWay.all.map { case (n, r) =>
      n -> repro.sim.Metrics.slidingImbalance(r.batches.map(_.loadByWorker), r.cfg.k)
    }.toMap,
    rep.fourWay.all.map { case (n, r) => n -> r.batches.map(_.locality) }.toMap)

  /** Fig. 6g: the first ILS run on the Hash-prepartitioned graph with the
    * paper's full 2 s budget.
    */
  def ilsConvergence(spark: SparkSession, s: ExpScale): repro.qcut.IlsResult = {
    val traces = Traces.sssp(spark, s)
    val fw = QGraphRunner.run(
      HashPartitioner.assign(s.network, s.k), traces,
      RunConfig("Hash+Q-cut", s.k, BarrierMode.Hybrid, adaptive = true,
        CostModel.default, controllerConfig(ilsBudgetMs = 2000)))
    require(fw.ilsRuns.nonEmpty, "controller never repartitioned")
    fw.ilsRuns.head
  }

  /** Fig. 7: scalability — total latency per k for the four strategies. */
  final case class ScalabilityReport(totals: Map[(String, Int), Double]) {
    def series(name: String, ks: Seq[Int]): Seq[Double] = ks.map(k => totals((name, k)))
  }

  def scalability(
      spark: SparkSession,
      s: ExpScale,
      ks: Seq[Int] = Seq(2, 4, 8, 16),
      poi: Boolean = false): ScalabilityReport = {
    val traces = if (poi) Traces.poi(spark, s) else Traces.sssp(spark, s)
    val out = for (k <- ks; (n, r) <- fourWay(s.network, traces, k).all)
      yield (n, k) -> r.totalLatency
    ScalabilityReport(out.toMap)
  }

  /** Section 4.1 LDG remark: latency and imbalance of the excluded LDG
    * partitioning next to Hash.
    */
  final case class LdgReport(ldgTotal: Double, hashTotal: Double, ldgImbalance: Double, hashImbalance: Double) {
    def slowdown: Double = ldgTotal / hashTotal
  }

  def ldgComparison(spark: SparkSession, s: ExpScale): LdgReport = {
    val traces = Traces.sssp(spark, s)
    val ldg = QGraphRunner.run(LdgPartitioner.assign(s.network, s.k), traces,
      RunConfig("LDG", s.k, BarrierMode.Hybrid, adaptive = false))
    val hash = QGraphRunner.run(HashPartitioner.assign(s.network, s.k), traces,
      RunConfig("Hash", s.k, BarrierMode.Hybrid, adaptive = false))
    def imb(r: RunResult) = r.batches.map(_.imbalance).sum / r.batches.size
    LdgReport(ldg.totalLatency, hash.totalLatency, imb(ldg), imb(hash))
  }

  /** Section 4.1 GraphX remark: activations of query-agnostic full-graph
    * single-query execution vs the localized engine, on a few queries.
    */
  final case class FullGraphReport(fullActivations: Long, prunedActivations: Long, latencyRatio: Double) {
    def activationRatio: Double = fullActivations.toDouble / prunedActivations
  }

  def fullGraphBaseline(spark: SparkSession, s: ExpScale, nQueries: Int = 4): FullGraphReport = {
    val edges = BspEngine.prepareEdges(spark, s.network)
    val qs = QueryWorkload.generate(s.network, nQueries, QueryKind.Sssp,
      batchSize = 1, seed = s.seed + 3000)
    // batchSize = 1: every query is its own batch, i.e. a single-query run.
    val pruned = BspEngine.runWorkload(spark, edges, s.network.isTagged, qs,
      s.maxIter, astarSide = Some(s.network.side))
    val full = BspEngine.runWorkload(spark, edges, s.network.isTagged, qs, s.maxIter * 4, pruned = false)
    val assign = HashPartitioner.assign(s.network, s.k)
    def latency(ts: Seq[BatchTrace]): Double = ts.map { t =>
      val stats = repro.sim.IterationStats.compute(t, assign(_))
      repro.sim.LatencySimulator.simulateBatch(stats, s.k, BarrierMode.Hybrid, CostModel.default).sumLatency
    }.sum
    FullGraphReport(
      full.map(_.activations.size.toLong).sum,
      pruned.map(_.activations.size.toLong).sum,
      latency(full) / latency(pruned))
  }
}
