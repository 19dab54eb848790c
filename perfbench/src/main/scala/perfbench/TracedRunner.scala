package perfbench

import repro.core._
import repro.engine.BatchTrace
import repro.qcut._
import repro.sim._
import repro.sync.BarrierMode
import scala.collection.mutable
import scala.util.Random

/** Per-layer counts gathered by the traced loop, summed over its runs. */
final class LayerCounts {
  var queryIters = 0L
  var triggers = 0L
  var enacted = 0L
  var movedVertices = 0L
  var atoms = 0L
  var clusters = 0L
  var ilsRounds = 0L
  var perturbations = 0L
  var improvingPerturbations = 0L
  var ilsInitialCost = 0L
  var ilsBestCost = 0L
  var firstDescentSteps = 0L
}

/** What the traced loop must reproduce of a `QGraphRunner.run` result. */
final case class RunOutputs(latencies: Map[Int, Double], repartitionBatches: Vector[Int], moved: Vector[Long])

object RunOutputs {
  def of(r: RunResult): RunOutputs = RunOutputs(
    r.queryLatencies,
    r.batches.filter(_.repartitioned).map(_.batchId),
    r.batches.filter(_.repartitioned).map(_.movedVertices))
}

/** The per-batch loop of `QGraphRunner.run`, driven from the benchmark
  * through the public calls of each layer so that every call gets a span:
  * statistics, simulation, controller observation and trigger, then the
  * Q-cut pipeline of `Controller.repartition` (atoms, Karger, state build,
  * optional rebalance, `QCut.optimize`, with one seeded `Random` consumed
  * in the controller's order) and the runner's hysteresis.
  *
  * The controller's monitoring window is private, so the loop keeps a
  * mirror of it (same append and eviction rules). Callers compare the
  * outputs with `QGraphRunner.run` on the same configuration; a mismatch
  * means this copy has drifted from the program.
  *
  * Spans of layer `bench` (the window mirror and the first-descent probe,
  * which times `LocalSearch.run` on a copy of each window's initial state)
  * are the benchmark's own work, not the program's.
  */
object TracedRunner {

  private final case class Entry(qid: Int, endTime: Double, scope: Set[Int])

  def modeKey(m: BarrierMode): String = m match {
    case BarrierMode.Hybrid         => "hybrid"
    case BarrierMode.PerQueryGlobal => "per_query"
    case BarrierMode.SharedGlobal   => "lockstep"
  }

  def run(initialAssign: Array[Int], traces: Seq[BatchTrace], cfg: RunConfig,
      tr: Tracer, counts: LayerCounts): RunOutputs = tr.span("core", "core.run") {
    var assign = initialAssign.clone()
    val controller = new Controller(cfg.k, cfg.ctrl)
    val rng = new Random(cfg.ctrl.ils.seed)
    val window = mutable.ArrayDeque.empty[Entry]
    var clock = 0.0
    val latencies = Map.newBuilder[Int, Double]
    val repartitioned = Vector.newBuilder[Int]
    val moved = Vector.newBuilder[Long]
    val simName = s"sim.simulate.${modeKey(cfg.barrier)}"

    for (trace <- traces) {
      val a = assign
      val stats = tr.span("sim", "sim.stats") { IterationStats.compute(trace, v => a(v)) }
      counts.queryIters += stats.size
      val sim = tr.span("sim", simName) { LatencySimulator.simulateBatch(stats, cfg.k, cfg.barrier, cfg.cost) }
      clock += sim.makespan
      latencies ++= sim.latency
      tr.span("core", "core.observe") { controller.observeBatch(trace, stats, clock) }
      if (cfg.adaptive) {
        tr.span("bench", "bench.window_mirror") {
          for (q <- trace.queries) window.append(Entry(q.qid, clock, trace.globalScope(q.qid)))
          while (window.nonEmpty && window.head.endTime < clock - cfg.ctrl.muSimSeconds) window.removeHead()
          while (window.size > cfg.ctrl.maxQueries) window.removeHead()
        }
        if (tr.span("core", "core.trigger") { controller.shouldRepartition }) {
          counts.triggers += 1
          val scopes = window.iterator.map(e => e.qid -> e.scope).toMap
          val outcome = tr.span("core", "core.repartition") { repartition(assign, scopes, cfg, rng, tr, counts) }
          val worthIt = outcome.costGainVsIncumbent >= 0.1 ||
            (outcome.rebalanced && outcome.maxLoadAfter < 0.9 * outcome.maxLoadBefore)
          if (outcome.movedVertices > 0 && worthIt) {
            assign = outcome.newAssign
            repartitioned += trace.batchId
            moved += outcome.movedVertices
            counts.enacted += 1
            counts.movedVertices += outcome.movedVertices
            clock += cfg.cost.tGlobalStopStart + cfg.cost.tBarrierPerWorker * cfg.k +
              cfg.cost.tMovePerVertex * outcome.movedVertices
          }
        }
      }
    }
    RunOutputs(latencies.result(), repartitioned.result(), moved.result())
  }

  /** `Controller.repartition`, one span per Q-cut stage. */
  private def repartition(assign: Array[Int], scopes: Map[Int, Set[Int]], cfg: RunConfig,
      rng: Random, tr: Tracer, counts: LayerCounts): RepartitionOutcome = {
    val k = cfg.k
    val atoms = tr.span("qcut", "qcut.atoms") { ScopeAtoms.build(scopes, assign) }
    counts.atoms += atoms.size
    val totalPerWorker = Array.fill(k)(0L)
    for (w <- assign) totalPerWorker(w) += 1L
    val queryIds = atoms.flatMap(_.sig).distinct.sorted
    val targetClusters = math.max(1, cfg.ctrl.clusterFactor * k)
    val clusterOfQuery = tr.span("qcut", "qcut.karger") {
      if (queryIds.length <= targetClusters) KargerClustering.identityClusters(queryIds.length)
      else KargerClustering.cluster(queryIds, KargerClustering.overlapsFromAtoms(atoms), targetClusters, rng)
    }
    counts.clusters += (if (clusterOfQuery.isEmpty) 0 else clusterOfQuery.max + 1)
    val state = tr.span("qcut", "qcut.state_build") {
      QCutState.build(atoms, totalPerWorker, k, cfg.ctrl.delta, clusterOfQuery)
    }
    val maxLoadBefore = (0 until k).map(state.load).max
    val incumbentCost = state.cost
    val needsRebalance = !state.globallyBalanced
    if (needsRebalance) tr.span("qcut", "qcut.rebalance") { Perturbation.rebalance(state, rng, preferSmall = true) }
    counts.firstDescentSteps += tr.span("bench", "bench.first_descent") { LocalSearch.run(state.copyState()) }
    val result = tr.span("qcut", "qcut.optimize") { QCut.optimize(state, cfg.ctrl.ils) }
    counts.ilsRounds += result.history.size
    counts.ilsInitialCost += result.initialCost
    counts.ilsBestCost += result.bestCost
    counts.perturbations += result.history.count(_.afterPerturbation)
    counts.improvingPerturbations += result.history.sliding(2).count {
      case Seq(prev, next) => next.afterPerturbation && next.bestCost < prev.bestCost
      case _               => false
    }
    val (newAssign, moved) = result.best.toVertexAssignment(assign)
    val maxLoadAfter = (0 until k).map(result.best.load).max
    RepartitionOutcome(newAssign, moved, result, needsRebalance, incumbentCost, maxLoadBefore, maxLoadAfter)
  }
}
