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
    // I. a random cluster spread across >= 2 workers: the r-th in ascending order
    var nSpread = 0
    var cc = 0
    while (cc < s.nClusters) { if (spread(s, cc)) nSpread += 1; cc += 1 }
    if (nSpread == 0) return false
    var c = -1
    var r = rng.nextInt(nSpread)
    while (r >= 0) { c += 1; if (spread(s, c)) r -= 1 }

    // II. merge every local scope of c onto its largest-scope worker (the
    // first one on a tie)
    var target = 0
    var w = 1
    while (w < s.k) { if (s.clusterScope(c, w) > s.clusterScope(c, target)) target = w; w += 1 }
    w = 0
    while (w < s.k) {
      if (w != target && s.clusterScope(c, w) > 0) s.moveCluster(c, w, target)
      w += 1
    }

    // III. random repair moves max-loaded -> least-loaded until balanced
    rebalance(s, rng)
    true
  }

  /** Does cluster `c` have scope on two or more workers? */
  private def spread(s: QCutState, c: Int): Boolean = {
    var n = 0
    var w = 0
    while (w < s.k && n < 2) { if (s.clusterScope(c, w) > 0) n += 1; w += 1 }
    n >= 2
  }

  /** Step III in isolation: randomly move cluster scopes from the maximally
    * to the least loaded worker until the δ-constraint holds (or no scope is
    * left to move / the move budget runs out). Also used by the controller
    * to restore an initial solution to the balanced solution space the
    * paper's Algorithm 2 operates in ("all solution states have balanced
    * workload").
    *
    * Each move takes the first most loaded and the first least loaded
    * worker, and a cluster with scope on the former: the r-th in ascending
    * order for r = `rng.nextInt(count)`, or with `preferSmall` the one with
    * the smallest scope there (the lowest index on a tie). A move allocates
    * nothing.
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
      var wMax = 0; var wMin = 0
      var lMax = s.load(0); var lMin = lMax
      var w = 1
      while (w < s.k) {
        val l = s.load(w)
        if (l > lMax) { wMax = w; lMax = l }
        if (l < lMin) { wMin = w; lMin = l }
        w += 1
      }
      // Clusters with scope on wMax: how many, and the smallest one.
      var nMovable = 0
      var smallest = -1
      var c = 0
      while (c < s.nClusters) {
        val x = s.clusterScope(c, wMax)
        if (x > 0) {
          if (smallest < 0 || x < s.clusterScope(smallest, wMax)) smallest = c
          nMovable += 1
        }
        c += 1
      }
      if (nMovable == 0) moves = MaxRepairMoves // only untouched vertices left: cannot repair via scopes
      else {
        if (preferSmall) c = smallest
        else {
          c = -1
          var r = rng.nextInt(nMovable)
          while (r >= 0) { c += 1; if (s.clusterScope(c, wMax) > 0) r -= 1 }
        }
        s.moveCluster(c, wMax, wMin)
        moves += 1
      }
    }
  }
}
