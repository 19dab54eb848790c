package repro.qcut

import scala.util.Random

/** The perturbation subroutine of Appendix A.2, operating on the converged
  * local minimum to give the next local search a fresh starting point:
  *
  *   I.   randomly select a query (cluster) spread across >= 2 workers;
  *   II.  move all its local scopes to the worker with its largest local
  *        scope;
  *   III. re-establish workload balance by randomly moving local scopes from
  *        the maximally to the least loaded worker.
  *
  * "Informed disorder": the merge step injects locality, the repair step
  * keeps the state inside the balanced solution space.
  */
object Perturbation {

  /** The move budget of the repair step (III). */
  private val MaxRepairMoves = 1000

  /** Perturbs `s` in place. Returns false if no cluster is spread across
    * two or more workers (the state already has perfect cluster locality, so
    * there is nothing to merge).
    */
  def run(s: QCutState, rng: Random): Boolean = {
    // I. candidate clusters spread across >= 2 workers
    val spread = (0 until s.nClusters).filter { c =>
      (0 until s.k).count(w => s.clusterScope(c, w) > 0) >= 2
    }
    if (spread.isEmpty) return false
    val c = spread(rng.nextInt(spread.length))

    // II. merge every local scope of c onto its largest-scope worker
    val target = (0 until s.k).maxBy(w => (s.clusterScope(c, w), -w))
    for (w <- 0 until s.k if w != target && s.clusterScope(c, w) > 0)
      s.moveCluster(c, w, target)

    // III. random repair moves max-loaded -> least-loaded until balanced
    rebalance(s, rng)
    true
  }

  /** Step III in isolation: randomly move cluster scopes from the maximally
    * to the least loaded worker until the δ-constraint holds (or no scope is
    * left to move / the move budget runs out). Also used by the controller
    * to restore an initial solution to the balanced solution space the
    * paper's Algorithm 2 operates in ("all solution states have balanced
    * workload").
    *
    * @param preferSmall move the smallest adequate cluster scope first
    *                    instead of a random one — the minimal-disruption
    *                    variant the controller uses when repairing an
    *                    incumbent partitioning (a random pick may relocate
    *                    a hotspot's main cluster and split all its future
    *                    queries; ILS perturbation keeps the random choice
    *                    for diversification)
    */
  def rebalance(s: QCutState, rng: Random, preferSmall: Boolean = false): Unit = {
    var moves = 0
    while (!s.globallyBalanced && moves < MaxRepairMoves) {
      val wMax = (0 until s.k).maxBy(w => (s.load(w), -w))
      val wMin = (0 until s.k).minBy(w => (s.load(w), w))
      val movable = (0 until s.nClusters).filter(cc => s.clusterScope(cc, wMax) > 0)
      if (movable.isEmpty) moves = MaxRepairMoves // only untouched vertices left: cannot repair via scopes
      else {
        val cc =
          if (preferSmall) movable.minBy(c => (s.clusterScope(c, wMax), c))
          else movable(rng.nextInt(movable.length))
        s.moveCluster(cc, wMax, wMin)
        moves += 1
      }
    }
  }
}
