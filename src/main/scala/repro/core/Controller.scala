package repro.core

import repro.engine.BatchTrace
import repro.qcut._
import repro.sim.{BatchStats, Metrics}
import scala.collection.mutable
import scala.util.Random

/** Controller configuration (System Settings, Section 4.1). The trigger
  * thresholds are constants of [[Controller]].
  *
  * @param muSimSeconds  tumbling monitoring window μ in simulated seconds
  *                      (paper: 240 s wall-clock — ours is scaled to the
  *                      simulated clock; it should span a few dozen queries)
  * @param maxQueries    cap on queries kept in the window (paper: 128)
  * @param delta         workload-balance threshold δ (paper: 0.25)
  * @param clusterFactor Karger clustering target is `clusterFactor * k`
  *                      clusters (paper: 4k)
  * @param ils           ILS budget (paper: 2 s, interruptible)
  */
final case class ControllerConfig(
    muSimSeconds: Double = 240.0,
    maxQueries: Int = 128,
    delta: Double = 0.25,
    clusterFactor: Int = 4,
    ils: IlsConfig = IlsConfig())

/** Result of one repartitioning decision. `rebalanced` records whether the
  * initial solution violated the δ-constraint and had to be repaired first;
  * `maxLoadBefore`/`maxLoadAfter` are the max worker workloads L_w of the
  * incumbent and planned states — the runner enacts a pure rebalance only
  * when it actually lowers the predicted peak load (hysteresis against
  * noise-driven thrash).
  */
final case class RepartitionOutcome(
    newAssign: Array[Int],
    movedVertices: Long,
    ils: IlsResult,
    rebalanced: Boolean,
    incumbentCost: Long,
    maxLoadBefore: Double,
    maxLoadAfter: Double) {
  /** Query-cut cost reduction of the plan relative to the *incumbent*
    * partitioning (the ILS's own `initialCost` is the post-rebalance state,
    * which overstates gains when a balance repair scrambled locality first).
    */
  def costGainVsIncumbent: Double =
    if (incumbentCost == 0) 0.0 else 1.0 - ils.bestCost.toDouble / incumbentCost
}

/** The centralized Q-Graph controller (Section 3.1 / Table 2).
  *
  * Realises the controller half of the paper's API on the simulated runtime:
  *
  *   - `stats(q, |LS(q,w)|, I_w, w)`   -> [[observeBatch]] — workers report
  *     per-iteration scope statistics (piggybacked on barrier messages in
  *     the paper; here derived from the batch trace);
  *   - `barrierSynch(q, w)` / `barrierReady(q)` -> enacted by the latency
  *     simulator's barrier cost model;
  *   - `scheduleQuery(q)` / `executeQuery(q)`   -> batch scheduling in the
  *     runner;
  *   - `move(LS(q,w), w, w')`          -> the vertex moves emitted by
  *     [[repartition]].
  *
  * The MAPE loop (Fig. 3): *monitor* scope stats into the tumbling window,
  * *analyze* average query locality against Φ, *plan* a Q-cut via ILS over
  * scope atoms, *execute* by translating the atom solution back to vertex
  * moves at a global barrier.
  */
final class Controller(k: Int, cfg: ControllerConfig) {
  import Controller.{ImbalanceTrigger, Phi, WindowEntry}

  private val window = mutable.ArrayDeque.empty[WindowEntry]
  private val rng = new Random(cfg.ils.seed)
  // Per-worker activation loads of the `Metrics.ImbalanceWindow` most
  // recent batches; the imbalance trigger is smoothed over them (the paper
  // smooths its workload measurements over sliding windows, Fig. 6e) so one
  // skewed batch of 16 query arrivals does not cause a repartition storm.
  private val recentLoads = mutable.ArrayDeque.empty[IndexedSeq[Long]]

  /** Ingests the statistics of a completed batch at simulated time `now`
    * and evicts entries older than μ (keeping at most `maxQueries`).
    */
  def observeBatch(trace: BatchTrace, stats: BatchStats, now: Double): Unit = {
    val locality = Metrics.queryLocality(stats)
    val scopes = trace.globalScopeArrays
    for (q <- trace.queries)
      window.append(WindowEntry(q.qid, now, scopes(q.qid), locality.getOrElse(q.qid, 1.0)))
    while (window.nonEmpty && window.head.endTime < now - cfg.muSimSeconds) window.removeHead()
    while (window.size > cfg.maxQueries) window.removeHead()
    recentLoads.append(Metrics.workerLoads(stats, k))
    while (recentLoads.size > Metrics.ImbalanceWindow) recentLoads.removeHead()
  }

  /** Active-vertex workload imbalance smoothed over the recent batches. */
  def lastImbalance: Double = Metrics.windowImbalance(recentLoads, k)

  /** Number of queries currently in the monitoring window. */
  def windowSize: Int = window.size

  /** Average query locality over the window (the Section 3.4 metric). */
  def avgLocality: Double =
    if (window.isEmpty) 1.0 else window.iterator.map(_.locality).sum / window.size

  /** The adaptivity trigger: locality below [[Controller.Phi]], or workload
    * imbalance beyond [[Controller.ImbalanceTrigger]].
    */
  def shouldRepartition: Boolean =
    window.nonEmpty && (avgLocality < Phi || lastImbalance > ImbalanceTrigger)

  /** Runs Q-cut over the window's scopes and returns the planned vertex
    * assignment. The ILS executes asynchronously to query processing in the
    * paper, so the caller charges only the global STOP/START barrier and the
    * scope moves to the simulated clock — not the ILS runtime.
    */
  def repartition(assign: Array[Int]): RepartitionOutcome = {
    val atoms = ScopeAtoms.fromArrays(window.iterator.map(e => e.qid -> e.scope).toMap, assign)
    val totalPerWorker = Array.fill(k)(0L)
    for (w <- assign) totalPerWorker(w) += 1L
    val queryIds = atoms.flatMap(_.sig).distinct.sorted
    val targetClusters = math.max(1, cfg.clusterFactor * k)
    val clusterOfQuery =
      if (queryIds.length <= targetClusters) KargerClustering.identityClusters(queryIds.length)
      else KargerClustering.cluster(queryIds, KargerClustering.overlapsFromAtoms(atoms), targetClusters, rng)
    val state = QCutState.build(atoms, totalPerWorker, k, cfg.delta, clusterOfQuery)
    val maxLoadBefore = state.maxLoad
    val incumbentCost = state.cost
    // Algorithm 2 operates on the balanced solution space; if the incumbent
    // partitioning violates the δ-constraint (e.g. Domain under a skewed
    // query workload), restore balance first via step III of Appendix A.2.
    val needsRebalance = !state.globallyBalanced
    if (needsRebalance) Perturbation.rebalance(state, rng, preferSmall = true)
    val result = QCut.optimize(state, cfg.ils)
    val (newAssign, moved) = result.best.toVertexAssignment(assign)
    val maxLoadAfter = result.best.maxLoad
    RepartitionOutcome(newAssign, moved, result, needsRebalance, incumbentCost,
      maxLoadBefore, maxLoadAfter)
  }
}

object Controller {

  /** Locality threshold Φ: repartition when the average query locality
    * drops below it (paper: 0.7).
    */
  val Phi = 0.7

  /** Active-vertex workload imbalance above which the current partitioning
    * also counts as "suboptimal" (Section 3.4 triggers on suboptimal
    * partitionings; the Q-cut problem statement is *balanced* k-way
    * partitioning, so a partitioning far outside the δ-constraint is
    * repartitioned even when local — this is what lets Q-cut improve on
    * Domain).
    */
  val ImbalanceTrigger = 0.5

  /** One query in the monitoring window; `scope` is its GS(q), sorted and distinct. */
  private final case class WindowEntry(qid: Int, endTime: Double, scope: Array[Int], locality: Double)
}
