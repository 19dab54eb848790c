package repro.qcut

/** Algorithm 2 of the paper: steepest-descent local search over cluster-scope
  * moves.
  *
  * In each step every successor state — "moving any local query scope from
  * worker w to worker w'" (lifted to clusters, Appendix A.1) that keeps the
  * moved pair δ-balanced (line 15) — is evaluated; the cheapest one is taken
  * if it strictly improves the cost, otherwise the current state is a local
  * minimum and is returned.
  *
  * Successors are evaluated by exact cost delta, as in the gain bookkeeping
  * of Fiduccia–Mattheyses: a move of cluster `c` from `from` to `to` changes
  * only the local scopes on `from` and `to` of the queries in the moved
  * atoms' signatures, and leaves each query's Σ_w |LS(q,w)| unchanged, so the
  * move's cost is the current cost plus, over those queries, the old minus
  * the new max_w |LS(q,w)|. Nothing is applied or undone to score a move.
  *
  * One [[SuccessorTable]] holds these deltas for a whole descent and is kept
  * up to date across its accepted moves, so a step re-scores only the moves
  * that the last accepted move changed. The argmin over the table walks the
  * moves in scan order (cluster, then source, then destination worker) with
  * a strict `<`, so the first cheapest balanced successor in that order wins.
  */
object LocalSearch {

  /** One candidate move: cluster `c` from worker `from` to worker `to`. */
  final case class Move(c: Int, from: Int, to: Int)

  /** Runs the search in place on `s` until a local minimum and returns the
    * number of accepted moves. It never reads the clock: the ILS is
    * interrupted only between rounds (see [[QCut.optimize]]).
    */
  def run(s: QCutState): Int = {
    val table = new SuccessorTable(s)
    var steps = 0
    var improved = true
    while (improved) {
      improved = false
      table.successor match {
        case Some((move, movedCost)) if movedCost < s.cost =>
          table.move(move.c, move.from, move.to)
          improved = true
          steps += 1
        case _ => ()
      }
    }
    steps
  }

  /** The cost delta of every successor of `s`, kept current while `s` is
    * changed through [[move]]. Row `r = c * k + from` stands for the moves
    * of cluster `c` off worker `from`; it is live while the cluster has
    * scope on `from`. The table holds:
    *
    *   - per query `q`: its largest local scope `top1(q)`, on worker
    *     `top1w(q)`, and its second largest `top2(q)` (on another worker);
    *   - per row: `mass(r * nQ + q)`, the scope that query `q` would lose on
    *     `from` (dense over the window's queries), and `dS(r)`, the scope
    *     multiplicity that would leave `from`;
    *   - per row and destination `to`: `delta(r * k + to)`, the cost of the
    *     move minus the current cost.
    *
    * A row's deltas read only its own masses and the local scopes of the
    * queries it holds. A move of cluster `c` from `f` to `t` moves atoms;
    * each atom's size passes from the rows (c′, f) of the clusters c′ its
    * signature meets to the rows (c′, t), and the local scopes, and so the
    * top two, change only for the queries in the moved atoms' signatures.
    * So the rows a move invalidates are those whose masses moved and those
    * that hold a changed query; every other row keeps its deltas. Balance is
    * not stored: it depends on the loads of both endpoints, which every move
    * changes, and the argmin tests it only for a move cheaper than the best
    * so far.
    */
  private[repro] final class SuccessorTable(s: QCutState) {
    private val k = s.k
    private val nQ = s.nQueries
    private val ix = s.index
    private val nRows = s.nClusters * k
    private val top1 = new Array[Long](nQ)
    private val top2 = new Array[Long](nQ)
    private val top1w = new Array[Int](nQ)
    private val mass = new Array[Long](nRows * nQ)
    private val dS = new Array[Long](nRows)
    private val delta = new Array[Long](nRows * k)
    // Scratch: per destination, Σ_q max(0, |LS(q,to)| + m − base) of one
    // row; the queries a move changed; the rows whose masses it moved.
    private val raised = new Array[Long](k)
    private val changed = new Array[Int](nQ)
    private val isChanged = new Array[Boolean](nQ)
    private val dirty = new Array[Boolean](nRows)

    locally {
      var q = 0
      while (q < nQ) { rankScopes(q); q += 1 }
      var c = 0
      while (c < s.nClusters) {
        var j = ix.clusterAtomStart(c)
        while (j < ix.clusterAtomStart(c + 1)) {
          val i = ix.clusterAtom(j)
          addMass(c * k + s.assign(i), i, ix.atomSize(i))
          j += 1
        }
        c += 1
      }
      var r = 0
      while (r < nRows) { score(r); r += 1 }
    }

    /** Recomputes the top two local scopes of query `q`. */
    private def rankScopes(q: Int): Unit = {
      var t1 = -1L; var t2 = -1L; var w1 = -1
      var w = 0
      while (w < k) {
        val x = s.localScope(q, w)
        if (x > t1) { t2 = t1; t1 = x; w1 = w } else if (x > t2) t2 = x
        w += 1
      }
      top1(q) = t1; top2(q) = t2; top1w(q) = w1
    }

    /** Adds `sz` (negative to remove) to row `r`'s mass of every query of
      * atom `i`.
      */
    private def addMass(r: Int, i: Int, sz: Long): Unit = {
      var t = ix.atomQueryStart(i)
      while (t < ix.atomQueryStart(i + 1)) { mass(r * nQ + ix.atomQuery(t)) += sz; t += 1 }
    }

    /** Recomputes row `r`'s dS and deltas. Only `from` loses scope, so a
      * query's new max is `base`, the larger of its new scope on `from` and
      * its old max over the other workers, raised to its new scope on `to`:
      * the move to `to` changes the cost by
      * Σ_q (top1 − base) − Σ_q max(0, |LS(q,to)| + m − base).
      */
    private def score(r: Int): Unit = {
      val from = r % k
      var kept = 0L
      var moved = 0L
      java.util.Arrays.fill(raised, 0L)
      var q = 0
      while (q < nQ) {
        val m = mass(r * nQ + q)
        if (m > 0) {
          moved += m
          val maxOffFrom = if (top1w(q) != from) top1(q) else top2(q)
          val base = math.max(maxOffFrom, s.localScope(q, from) - m)
          kept += top1(q) - base
          var to = 0
          while (to < k) {
            val x = s.localScope(q, to) + m - base
            if (x > 0) raised(to) += x
            to += 1
          }
        }
        q += 1
      }
      dS(r) = moved
      var to = 0
      while (to < k) { delta(r * k + to) = kept - raised(to); to += 1 }
    }

    /** The first cheapest balanced successor in scan order and its cost,
      * even if it does not improve (the caller decides, mirroring
      * Algorithm 2 lines 5-9). The cost comparison comes first, so the δ
      * test runs only for a move that would replace the best so far.
      */
    def successor: Option[(Move, Long)] = {
      var bestRow = -1; var bestTo = -1; var bestDelta = 0L
      var c = 0
      while (c < s.nClusters) {
        var from = 0
        while (from < k) {
          val dV = s.clusterScope(c, from)
          if (dV > 0) {
            val r = c * k + from
            var to = 0
            while (to < k) {
              if (to != from) {
                val d = delta(r * k + to)
                if ((bestRow < 0 || d < bestDelta) && s.pairBalancedAfter(from, to, dV, dS(r))) {
                  bestRow = r; bestTo = to; bestDelta = d
                }
              }
              to += 1
            }
          }
          from += 1
        }
        c += 1
      }
      if (bestRow < 0) None else Some((Move(bestRow / k, bestRow % k, bestTo), s.cost + bestDelta))
    }

    /** `s.moveCluster(c, from, to)`, then re-scores the rows it invalidated. */
    def move(c: Int, from: Int, to: Int): Unit = {
      var nChanged = 0
      var j = ix.clusterAtomStart(c)
      while (j < ix.clusterAtomStart(c + 1)) {
        val i = ix.clusterAtom(j)
        if (s.assign(i) == from) {
          val sz = ix.atomSize(i)
          var t = ix.atomClusterStart(i)
          while (t < ix.atomClusterStart(i + 1)) {
            val row = ix.atomCluster(t) * k
            addMass(row + from, i, -sz); addMass(row + to, i, sz)
            dirty(row + from) = true; dirty(row + to) = true
            t += 1
          }
          t = ix.atomQueryStart(i)
          while (t < ix.atomQueryStart(i + 1)) {
            val q = ix.atomQuery(t)
            if (!isChanged(q)) { isChanged(q) = true; changed(nChanged) = q; nChanged += 1 }
            t += 1
          }
        }
        j += 1
      }
      s.moveCluster(c, from, to)
      var t = 0
      while (t < nChanged) { rankScopes(changed(t)); t += 1 }
      var r = 0
      while (r < nRows) {
        var stale = dirty(r)
        t = 0
        while (!stale && t < nChanged) { stale = mass(r * nQ + changed(t)) > 0; t += 1 }
        if (stale) score(r)
        dirty(r) = false
        r += 1
      }
      t = 0
      while (t < nChanged) { isChanged(changed(t)) = false; t += 1 }
    }
  }
}
