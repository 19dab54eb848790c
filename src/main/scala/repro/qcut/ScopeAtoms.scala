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

  /** Builds atoms from per-query global scopes under the given assignment,
    * ordered by (`sig.mkString(",")`, worker); each atom's vertices ascend.
    *
    * Vertices are grouped by (signature, worker) over dense per-vertex
    * arrays indexed by vertex id: a vertex's signature is its slice of one
    * flat array of query ids, filled in ascending qid order.
    */
  def build(scopes: Map[Int, Set[Int]], assign: Int => Int): Vector[Atom] = {
    val qids = scopes.keys.toArray.sorted
    var nVertices = 0
    for (scope <- scopes.valuesIterator; u <- scope) {
      require(u >= 0, s"negative vertex id $u")
      if (u >= nVertices) nVertices = u + 1
    }
    // Per vertex: its signature as sigQ(sigStart(v) until sigStart(v + 1)).
    val sigStart = new Array[Int](nVertices + 1)
    for (scope <- scopes.valuesIterator; u <- scope) sigStart(u + 1) += 1
    var v = 0
    while (v < nVertices) { sigStart(v + 1) += sigStart(v); v += 1 }
    val sigQ = new Array[Int](sigStart(nVertices))
    val fill = java.util.Arrays.copyOf(sigStart, nVertices)
    for (q <- qids; u <- scopes(q)) { sigQ(fill(u)) = q; fill(u) += 1 }

    // Group touched vertices by (signature, worker) in an open-addressing
    // table of group representatives; vertices are visited in ascending id.
    val worker = new Array[Int](nVertices)
    val groupOf = new Array[Int](nVertices)
    val reps = Array.newBuilder[Int]
    var nGroups = 0
    val table = Array.fill(Integer.highestOneBit(math.max(1, sigQ.length)) * 4)(-1)
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

  /** Local query scope size |LS(q, w)| from atoms. */
  def localScopeSize(atoms: Seq[Atom], qid: Int, worker: Int): Long =
    atoms.iterator.filter(a => a.worker == worker && a.sig.contains(qid)).map(_.size.toLong).sum

  /** The paper's intersection function I_w(S): number of vertices on worker
    * `w` shared by every query in `S` (Section 3.4's example:
    * I_w({q1,q2,q3}) = 3 when the three queries share three vertices on w).
    */
  def intersection(atoms: Seq[Atom], worker: Int, qset: Set[Int]): Long =
    atoms.iterator
      .filter(a => a.worker == worker && qset.subsetOf(a.sig.toSet))
      .map(_.size.toLong).sum
}
