package repro.qcut

import scala.collection.mutable

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

  /** Builds atoms from per-query global scopes under the given assignment. */
  def build(scopes: Map[Int, Set[Int]], assign: Int => Int): Vector[Atom] = {
    val sigOf = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    for ((qid, scope) <- scopes.toSeq.sortBy(_._1); v <- scope)
      sigOf.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += qid
    val grouped = mutable.HashMap.empty[(Vector[Int], Int), mutable.ArrayBuffer[Int]]
    for ((v, qs) <- sigOf) {
      val key = (qs.toVector.sorted, assign(v))
      grouped.getOrElseUpdate(key, mutable.ArrayBuffer.empty) += v
    }
    grouped.toVector.sortBy { case ((sig, w), _) => (sig.mkString(","), w) }
      .map { case ((sig, w), vs) => Atom(sig, w, vs.toArray.sorted) }
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
