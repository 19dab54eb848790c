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
  * the new max_w |LS(q,w)|. Nothing is applied or undone during the scan. The
  * scan order (cluster, then source, then destination worker) and the strict
  * `<` tie-break are those of evaluating every successor in full: the first
  * cheapest successor in that order wins.
  *
  * The scan visits each cluster's atoms once: a counting sort by worker
  * groups them into one reused buffer, so the atoms of every (cluster,
  * source) move are a slice of it, ascending. Each query the move touches is
  * then read once, and its row of local scopes adds its part to the cost of
  * every destination.
  */
object LocalSearch {

  /** One candidate move: cluster `c` from worker `from` to worker `to`. */
  final case class Move(c: Int, from: Int, to: Int)

  /** Runs the search in place on `s` until a local minimum and returns the
    * number of accepted moves. It never reads the clock: the ILS is
    * interrupted only between rounds (see [[QCut.optimize]]).
    */
  def run(s: QCutState): Int = {
    var steps = 0
    var improved = true
    while (improved) {
      improved = false
      bestSuccessor(s) match {
        case Some((move, movedCost)) if movedCost < s.cost =>
          s.moveCluster(move.c, move.from, move.to)
          improved = true
          steps += 1
        case _ => ()
      }
    }
    steps
  }

  /** Evaluates all balanced successors; returns the cheapest one and its
    * cost (even if it does not improve — the caller decides, mirroring
    * Algorithm 2 lines 5-9).
    */
  def bestSuccessor(s: QCutState): Option[(Move, Long)] = {
    val k = s.k
    val nQ = s.nQueries
    val cost0 = s.cost
    // Per query: its largest local scope, on worker top1w, and its second
    // largest (on another worker).
    val top1 = new Array[Long](nQ); val top2 = new Array[Long](nQ); val top1w = new Array[Int](nQ)
    var qi = 0
    while (qi < nQ) {
      var t1 = -1L; var t2 = -1L; var w1 = -1
      var w = 0
      while (w < k) {
        val x = s.localScope(qi, w)
        if (x > t1) { t2 = t1; t1 = x; w1 = w } else if (x > t2) t2 = x
        w += 1
      }
      top1(qi) = t1; top2(qi) = t2; top1w(qi) = w1
      qi += 1
    }
    // Scope each query loses on `from` in the current (c, from) move, for
    // the `nTouched` queries listed in `touched` (those stamped `stamp`).
    val mass = new Array[Long](nQ)
    val seen = new Array[Int](nQ)
    val touched = new Array[Int](nQ)
    var stamp = 0
    // Cluster c's atoms grouped by worker: those on w are
    // bucket(bucketStart(w) until bucketStart(w + 1)), ascending.
    val ix = s.index
    val bucketStart = new Array[Int](k + 1)
    val cursor = new Array[Int](k)
    val bucket = new Array[Int](ix.maxClusterAtoms)
    // Per destination: Σ_q max(0, |LS(q,to)| + m − base) of the current move.
    val raised = new Array[Long](k)
    var bestMove: Move = null
    var bestCost = 0L
    var c = 0
    while (c < s.nClusters) {
      val a0 = ix.clusterAtomStart(c); val a1 = ix.clusterAtomStart(c + 1)
      java.util.Arrays.fill(bucketStart, 0)
      var j = a0
      while (j < a1) { bucketStart(s.assign(ix.clusterAtom(j)) + 1) += 1; j += 1 }
      var w = 0
      while (w < k) { bucketStart(w + 1) += bucketStart(w); cursor(w) = bucketStart(w); w += 1 }
      j = a0
      while (j < a1) {
        val i = ix.clusterAtom(j); val on = s.assign(i)
        bucket(cursor(on)) = i; cursor(on) += 1; j += 1
      }
      var from = 0
      while (from < k) {
        if (s.clusterScope(c, from) > 0) {
          // The moved atoms, their mass per query and dV/dS are the same for
          // every destination; compute them once.
          stamp += 1
          var nTouched = 0
          var dV = 0L; var dS = 0L
          var b = bucketStart(from)
          while (b < bucketStart(from + 1)) {
            val i = bucket(b)
            val sz = ix.atomSize(i)
            dV += sz; dS += sz * ix.nQueriesOf(i)
            var t = ix.atomQueryStart(i)
            while (t < ix.atomQueryStart(i + 1)) {
              val q = ix.atomQuery(t)
              if (seen(q) != stamp) { seen(q) = stamp; mass(q) = 0L; touched(nTouched) = q; nTouched += 1 }
              mass(q) += sz
              t += 1
            }
            b += 1
          }
          // Only `from` loses scope, so a query's new max is `base`, the
          // larger of its new scope on `from` and its old max over the other
          // workers, raised to its new scope on `to`: the move to `to` costs
          // cost0 + Σ_q (top1 − base) − Σ_q max(0, |LS(q,to)| + m − base).
          var kept = 0L
          java.util.Arrays.fill(raised, 0L)
          var t = 0
          while (t < nTouched) {
            val q = touched(t)
            val m = mass(q)
            val maxOffFrom = if (top1w(q) != from) top1(q) else top2(q)
            val base = math.max(maxOffFrom, s.localScope(q, from) - m)
            kept += top1(q) - base
            var to = 0
            while (to < k) {
              val x = s.localScope(q, to) + m - base
              if (x > 0) raised(to) += x
              to += 1
            }
            t += 1
          }
          var to = 0
          while (to < k) {
            if (to != from && s.pairBalancedAfter(from, to, dV, dS)) {
              val cost = cost0 + kept - raised(to)
              if (bestMove == null || cost < bestCost) { bestMove = Move(c, from, to); bestCost = cost }
            }
            to += 1
          }
        }
        from += 1
      }
      c += 1
    }
    if (bestMove == null) None else Some((bestMove, bestCost))
  }
}
