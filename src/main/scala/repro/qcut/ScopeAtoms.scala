package repro.qcut

/** A *scope atom*: the set of vertices on worker `worker` that are touched
  * by exactly the query set `sig` (within the monitoring window).
  *
  * Atoms are the driver-side realisation of the high-level knowledge the
  * paper's controller maintains (Section 3.4): the local scope sizes
  * |LS(q, w)| are row sums over atoms containing q, and the intersection
  * function I_w(S) is the sum over atoms on w whose signature is a superset
  * of S. Operating on atoms instead of vertices is exactly the paper's
  * "scalable representation of global knowledge" — the number of distinct
  * signatures is tiny compared to |V|.
  *
  * @param sig    sorted, distinct query ids sharing these vertices
  * @param worker worker currently hosting the vertices
  * @param vids   the vertices themselves (needed to translate a high-level
  *               Q-cut solution back into a low-level vertex assignment)
  */
final case class Atom(sig: Vector[Int], worker: Int, vids: Array[Int]) {
  require(sig.nonEmpty && sig == sig.distinct.sorted, s"bad signature $sig")
  def size: Int = vids.length
}

object ScopeAtoms {

  /** [[fromArrays]] over scopes given as sets. */
  def build(scopes: Map[Int, Set[Int]], assign: Int => Int): Vector[Atom] =
    fromArrays(scopes.map { case (q, scope) => q -> scope.toArray.sorted }, assign)

  /** Builds atoms from per-query global scopes, each a sorted, distinct
    * vertex array, under the given assignment, ordered by
    * (`sig.mkString(",")`, worker); each atom's vertices ascend.
    *
    * Vertices are grouped by (signature, worker) over dense per-vertex
    * arrays indexed by vertex id: a vertex's signature is its slice of one
    * flat array of query ids, filled in ascending qid order.
    */
  def fromArrays(scopes: Map[Int, Array[Int]], assign: Int => Int): Vector[Atom] = {
    val qids = scopes.keys.toArray.sorted
    val scopeOf = qids.map(scopes)
    var nVertices = 0
    for (scope <- scopeOf if scope.nonEmpty) {
      require(scope(0) >= 0, s"negative vertex id ${scope(0)}")
      var j = 1
      while (j < scope.length) { require(scope(j) > scope(j - 1), "a scope must be sorted and distinct"); j += 1 }
      nVertices = math.max(nVertices, scope.last + 1)
    }
    // Per vertex: its signature as sigQ(sigStart(v) until sigStart(v + 1)).
    val sigStart = new Array[Int](nVertices + 1)
    for (scope <- scopeOf) { var j = 0; while (j < scope.length) { sigStart(scope(j) + 1) += 1; j += 1 } }
    var nTouched = 0
    var v = 0
    while (v < nVertices) { if (sigStart(v + 1) > 0) nTouched += 1; sigStart(v + 1) += sigStart(v); v += 1 }
    val sigQ = new Array[Int](sigStart(nVertices))
    val fill = java.util.Arrays.copyOf(sigStart, nVertices)
    for (qi <- qids.indices) {
      val scope = scopeOf(qi)
      var j = 0
      while (j < scope.length) { val u = scope(j); sigQ(fill(u)) = qids(qi); fill(u) += 1; j += 1 }
    }

    // Group touched vertices by (signature, worker) in an open-addressing
    // table of group representatives, at most one per touched vertex, so
    // the table stays at most half full; vertices are visited in ascending id.
    val worker = new Array[Int](nVertices)
    val groupOf = new Array[Int](nVertices)
    val reps = Array.newBuilder[Int]
    var nGroups = 0
    val table = new Array[Int](Integer.highestOneBit(math.max(1, nTouched)) * 4)
    java.util.Arrays.fill(table, -1)
    val mask = table.length - 1
    def sameKey(a: Int, b: Int): Boolean =
      worker(a) == worker(b) &&
        java.util.Arrays.equals(sigQ, sigStart(a), sigStart(a + 1), sigQ, sigStart(b), sigStart(b + 1))
    v = 0
    while (v < nVertices) {
      if (sigStart(v + 1) > sigStart(v)) {
        val w = assign(v)
        worker(v) = w
        var h = w
        var j = sigStart(v)
        while (j < sigStart(v + 1)) { h = 31 * h + sigQ(j); j += 1 }
        var slot = scala.util.hashing.MurmurHash3.finalizeHash(h, 0) & mask
        while (table(slot) >= 0 && !sameKey(table(slot), v)) slot = (slot + 1) & mask
        if (table(slot) < 0) { table(slot) = v; groupOf(v) = nGroups; reps += v; nGroups += 1 }
        else groupOf(v) = groupOf(table(slot))
      }
      v += 1
    }
    val vids = Array.fill(nGroups)(Array.newBuilder[Int])
    v = 0
    while (v < nVertices) { if (sigStart(v + 1) > sigStart(v)) vids(groupOf(v)) += v; v += 1 }
    val atoms = reps.result().iterator.zip(vids.iterator).map { case (r, vs) =>
      Atom(sigQ.slice(sigStart(r), sigStart(r + 1)).toVector, worker(r), vs.result())
    }.toVector
    atoms.map(a => (a.sig.mkString(","), a.worker, a)).sortBy(t => (t._1, t._2)).map(_._3)
  }
}
