package repro.engine

import scala.collection.mutable

/** Vertex `vid` of query `qid` is *active* in iteration `iter` — it received
  * at least one message in iteration `iter - 1` (or is a start vertex at
  * iteration 0). This is the paper's activation definition (Section 2) and
  * the unit of the global query scope GS(q).
  */
final case class ActRec(qid: Int, iter: Int, vid: Int)

/** A vertex message sent along edge `src -> dst` by query `qid` during the
  * communication phase of iteration `iter`.
  */
final case class MsgRec(qid: Int, iter: Int, src: Int, dst: Int)

/** Final answer of a query.
  *
  * @param found      whether the target (SSSP end / any POI) was reached
  * @param dist       shortest travel time to the target (NaN when not found)
  * @param target     SSSP end vertex, or the nearest tagged vertex for POI
  * @param iterations number of BSP iterations the query was active for
  */
final case class QueryResult(qid: Int, found: Boolean, dist: Double, target: Int, iterations: Int)

/** The complete execution trace of one 16-query batch.
  *
  * Load-bearing property (asserted by tests, relied on by the simulator):
  * under synchronous BSP the trace is a pure function of (graph, queries) —
  * it does not depend on how the graph is partitioned. Partitioning and
  * barrier management only decide *where* each activation executes and
  * *which* messages cross worker boundaries, which is exactly what
  * `repro.sim.IterationStats` derives from a trace plus an assignment.
  *
  * Storage is columnar: activations, messages and final distances are
  * parallel primitive arrays (row `i` of the activation columns is
  * `ActRec(actQid(i), actIter(i), actVid(i))`). The engine emits
  * activations sorted by (iter, qid, vid) and messages by (iter, qid, src,
  * dst), whatever order the batch lists its queries in; final distances
  * are sorted by (qid, vid). Every cached trace and every replay pass is
  * held in memory, so a boxed record per row would dominate the heap. The
  * constructor takes the columns; the engine is the one producer. `activations`, `messages` and `finalDistances` are
  * read-only record views over the columns; equality is by value.
  */
final class BatchTrace(
    val batchId: Int,
    val queries: Vector[Query],
    val iterations: Int,
    private[repro] val actQid: Array[Int],
    private[repro] val actIter: Array[Int],
    private[repro] val actVid: Array[Int],
    private[repro] val msgQid: Array[Int],
    private[repro] val msgIter: Array[Int],
    private[repro] val msgSrc: Array[Int],
    private[repro] val msgDst: Array[Int],
    val results: Map[Int, QueryResult],
    distQid: Array[Int],
    distVid: Array[Int],
    distValue: Array[Double]) extends Serializable {
  require(actIter.length == actQid.length && actVid.length == actQid.length, "ragged activation columns")
  require(msgIter.length == msgQid.length && msgSrc.length == msgQid.length && msgDst.length == msgQid.length,
    "ragged message columns")
  require(distVid.length == distQid.length && distValue.length == distQid.length, "ragged distance columns")

  def activations: IndexedSeq[ActRec] = new IndexedSeq[ActRec] {
    def length: Int = actQid.length
    def apply(i: Int): ActRec = ActRec(actQid(i), actIter(i), actVid(i))
  }

  def messages: IndexedSeq[MsgRec] = new IndexedSeq[MsgRec] {
    def length: Int = msgQid.length
    def apply(i: Int): MsgRec = MsgRec(msgQid(i), msgIter(i), msgSrc(i), msgDst(i))
  }

  /** Per query, the distance of every vertex the query reached. */
  def finalDistances: Map[Int, Map[Int, Double]] =
    distQid.indices.groupBy(distQid(_)).map { case (qid, rows) =>
      qid -> rows.map(i => distVid(i) -> distValue(i)).toMap
    }

  /** Global query scope GS(q): every vertex activated by query q. */
  def globalScope(qid: Int): Set[Int] = {
    val b = Set.newBuilder[Int]
    var i = 0
    while (i < actQid.length) { if (actQid(i) == qid) b += actVid(i); i += 1 }
    b.result()
  }

  /** [[globalScope]] of every query of the batch (and of any other qid
    * with activations) as a sorted, distinct vertex array, from one pass
    * over the activation columns.
    */
  def globalScopeArrays: Map[Int, Array[Int]] = {
    val builders = mutable.HashMap.empty[Int, mutable.ArrayBuilder.ofInt]
    for (q <- queries) builders(q.qid) = new mutable.ArrayBuilder.ofInt
    var lastQid = 0
    var last: mutable.ArrayBuilder.ofInt = null
    var i = 0
    while (i < actQid.length) {
      if (last == null || actQid(i) != lastQid) {
        lastQid = actQid(i)
        last = builders.getOrElseUpdate(lastQid, new mutable.ArrayBuilder.ofInt)
      }
      last += actVid(i)
      i += 1
    }
    builders.iterator.map { case (q, b) => q -> BatchTrace.sortedDistinct(b.result()) }.toMap
  }

  private def columns: Seq[AnyRef] =
    Seq(actQid, actIter, actVid, msgQid, msgIter, msgSrc, msgDst, distQid, distVid, distValue)

  override def equals(other: Any): Boolean = other match {
    case o: BatchTrace =>
      batchId == o.batchId && iterations == o.iterations && queries == o.queries && results == o.results &&
        columns.zip(o.columns).forall { case (a, b) => java.util.Objects.deepEquals(a, b) }
    case _ => false
  }

  override def hashCode: Int =
    java.util.Arrays.deepHashCode((Seq[AnyRef](Int.box(batchId), queries, results) ++ columns).toArray)

  override def toString: String =
    s"BatchTrace(batch $batchId, ${queries.size} queries, $iterations iterations, " +
      s"${actQid.length} activations, ${msgQid.length} messages)"
}

object BatchTrace {

  /** Version of the engine output and of this class's serialized layout;
    * part of every trace-cache key, so bumping it retires old cache files.
    */
  val Format: Int = 1

  /** `xs` sorted, without repeats; sorts `xs` in place. */
  private def sortedDistinct(xs: Array[Int]): Array[Int] = {
    java.util.Arrays.sort(xs)
    var n = 0
    var i = 0
    while (i < xs.length) {
      if (n == 0 || xs(i) != xs(n - 1)) { xs(n) = xs(i); n += 1 }
      i += 1
    }
    if (n == xs.length) xs else java.util.Arrays.copyOf(xs, n)
  }
}
