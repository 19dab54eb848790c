package repro.core

import java.util.concurrent.ExecutionException
import repro.engine.BatchTrace
import repro.qcut.IlsResult
import repro.sim._
import repro.sync.BarrierMode
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.control.NonFatal

/** One end-to-end run configuration: an initial static partitioning, a
  * barrier model, and whether the adaptive Q-cut controller is active.
  */
final case class RunConfig(
    name: String,
    k: Int,
    barrier: BarrierMode = BarrierMode.Hybrid,
    adaptive: Boolean = false,
    cost: CostModel = CostModel.default,
    ctrl: ControllerConfig = ControllerConfig())

/** Per-batch measurements (the time series behind Figs. 5a/5b/6e/6f).
  * `loadByWorker` (activations per worker, indexed by worker) feeds the
  * sliding-window imbalance of Fig. 6e.
  */
final case class BatchOutcome(
    batchId: Int,
    nQueries: Int,
    avgLatency: Double,
    sumLatency: Double,
    makespan: Double,
    locality: Double,
    imbalance: Double,
    loadByWorker: IndexedSeq[Long],
    repartitioned: Boolean,
    movedVertices: Long)

/** Full run result. `queryLatencies` is keyed by qid; `ilsRuns` holds the
  * convergence history of every triggered repartitioning (Fig. 6g uses the
  * first).
  */
final case class RunResult(
    cfg: RunConfig,
    batches: Vector[BatchOutcome],
    queryLatencies: Map[Int, Double],
    ilsRuns: Vector[IlsResult]) {
  def totalLatency: Double = queryLatencies.valuesIterator.sum
  def avgLatency: Double = if (queryLatencies.isEmpty) 0.0 else totalLatency / queryLatencies.size
  def avgLocality: Double = if (batches.isEmpty) 0.0 else batches.map(_.locality).sum / batches.size
  def repartitions: Int = batches.count(_.repartitioned)
}

/** Drives a workload's (partition-invariant) batch traces through the
  * simulated Q-Graph runtime: statistics -> latency simulation -> controller
  * MAPE loop -> optional repartitioning at a global barrier.
  *
  * Batches execute sequentially in *simulated* time (each is "16 parallel
  * queries", Section 4.2); the simulated clock accumulates batch makespans
  * plus, when the controller repartitions, the global STOP/START barrier and
  * the scope movement cost. The ILS itself runs asynchronously to query
  * processing (Appendix A.3) and therefore does not advance the clock.
  *
  * Only host wall-clock overlaps: a static run replays every batch under
  * the one initial assignment, so its batches do not depend on each other
  * and are replayed concurrently on the shared pool, then folded in batch
  * order — the result is bit for bit the sequential one. An adaptive run
  * replays its batches one after another, because the controller's decision
  * after batch i sets the assignment of batch i + 1.
  */
object QGraphRunner {

  /** One batch replayed under one assignment. */
  private final class Replay(val stats: BatchStats, val sim: BatchSim, val locality: Double,
      val loads: IndexedSeq[Long], val imbalance: Double)

  private def replay(trace: BatchTrace, assign: Array[Int], cfg: RunConfig): Replay = {
    val stats = IterationStats.compute(trace, v => assign(v))
    val sim = LatencySimulator.simulateBatch(stats, cfg.k, cfg.barrier, cfg.cost)
    val loads = Metrics.workerLoads(stats, cfg.k)
    new Replay(stats, sim, Metrics.avgQueryLocality(stats), loads, Metrics.windowImbalance(Seq(loads), cfg.k))
  }

  def run(initialAssign: Array[Int], traces: Seq[BatchTrace], cfg: RunConfig): RunResult = {
    require(traces.nonEmpty, "no traces")
    var assign = initialAssign.clone()
    val controller = new Controller(cfg.k, cfg.ctrl)
    var clock = 0.0
    val batches = Vector.newBuilder[BatchOutcome]
    val latencies = Map.newBuilder[Int, Double]
    val ilsRuns = Vector.newBuilder[IlsResult]

    // A static run starts every batch's replay at once; the loop below
    // folds them in batch order.
    val static: Vector[Future[Replay]] =
      if (cfg.adaptive) Vector.empty
      else {
        val a = assign
        traces.toVector.map(t => Future {
          // A fatal error would leave the future incomplete, and the await
          // below would hang instead of failing.
          try replay(t, a, cfg) catch { case e: Throwable if !NonFatal(e) => throw new ExecutionException(e) }
        }(ExecutionContext.global))
      }
    for ((trace, i) <- traces.zipWithIndex) {
      val r = if (cfg.adaptive) replay(trace, assign, cfg) else Await.result(static(i), Duration.Inf)
      clock += r.sim.makespan
      latencies ++= r.sim.latency

      var repartitioned = false
      var moved = 0L
      if (cfg.adaptive) {
        controller.observeBatch(trace, r.stats, clock)
        if (controller.shouldRepartition) {
          val outcome = controller.repartition(assign)
          // Hysteresis: enact the plan only when it buys something *relative
          // to the incumbent* — a real query-cut cost reduction, or a balance
          // repair that lowers the predicted peak worker load. Shuffling
          // scopes for a marginal gain would thrash the partitioning under a
          // drifting workload (every move is paid at a global barrier).
          val worthIt = outcome.costGainVsIncumbent >= 0.1 ||
            (outcome.rebalanced && outcome.maxLoadAfter < 0.9 * outcome.maxLoadBefore)
          if (outcome.movedVertices > 0 && worthIt) {
            assign = outcome.newAssign
            moved = outcome.movedVertices
            repartitioned = true
            ilsRuns += outcome.ils
            clock += cfg.cost.tGlobalStopStart +
              cfg.cost.tBarrierPerWorker * cfg.k +
              cfg.cost.tMovePerVertex * moved
          }
        }
      }
      batches += BatchOutcome(
        trace.batchId, trace.queries.size,
        r.sim.avgLatency, r.sim.sumLatency, r.sim.makespan,
        r.locality, r.imbalance, r.loads,
        repartitioned, moved)
    }
    RunResult(cfg, batches.result(), latencies.result(), ilsRuns.result())
  }
}
