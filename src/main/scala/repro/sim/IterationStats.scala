package repro.sim

import repro.engine.BatchTrace
import scala.collection.mutable

/** Where one iteration of one query lands under a given vertex->worker
  * assignment: how many active vertices execute on each worker, and how many
  * messages cross each (sender, receiver) worker pair.
  *
  * This is the low-level realisation of the paper's high-level knowledge:
  * `actByWorker` is exactly the per-iteration |LS(q, w)| signal workers
  * piggyback onto barrier messages (Section 3.4).
  *
  * @param remoteMsgs cross-worker message counts, keyed by (srcWorker,
  *                   dstWorker), srcWorker != dstWorker; messages whose
  *                   endpoints share a worker are a free in-memory hand-off
  */
final case class QueryIterStat(
    qid: Int,
    iter: Int,
    actByWorker: Map[Int, Int],
    remoteMsgs: Map[(Int, Int), Int]) {

  /** Workers participating in this iteration's barrier: those computing and
    * those that receive messages (they must accept delivery before the next
    * iteration starts).
    */
  def involvedWorkers: Set[Int] =
    actByWorker.keySet ++ remoteMsgs.keysIterator.flatMap { case (a, b) => Iterator(a, b) }

  /** A fully local iteration in the *synchronization* sense: one computing
    * worker and no message leaves it — eligible for the communication-free
    * local barrier ("no distant vertices get activated via message
    * passing", Section 3.3).
    */
  def isLocal: Boolean = remoteMsgs.isEmpty && actByWorker.size <= 1

  /** Local in the paper's *metric* sense (Section 3.4 / Fig. 6f): the query
    * "executes completely locally on a single worker" in this iteration,
    * i.e. all active vertices share one worker. Message fan-out is not part
    * of the metric — this is what makes Hash's measured locality ~38% in
    * the paper (most iterations have tiny frontiers).
    */
  def isComputeLocal: Boolean = actByWorker.size <= 1

  def totalActive: Int = actByWorker.valuesIterator.sum
  def totalRemote: Int = remoteMsgs.valuesIterator.sum
}

object IterationStats {

  /** Replays a (partition-invariant) batch trace against an assignment.
    * Returns stats sorted by (qid, iter); every (qid, iter) with at least
    * one activation appears exactly once.
    */
  def compute(trace: BatchTrace, assign: Int => Int): Vector[QueryIterStat] = {
    val act = mutable.HashMap.empty[(Int, Int), mutable.HashMap[Int, Int]]
    for (i <- trace.actQid.indices) {
      val m = act.getOrElseUpdate((trace.actQid(i), trace.actIter(i)), mutable.HashMap.empty)
      val w = assign(trace.actVid(i))
      m(w) = m.getOrElse(w, 0) + 1
    }
    val remote = mutable.HashMap.empty[(Int, Int), mutable.HashMap[(Int, Int), Int]]
    for (i <- trace.msgQid.indices) {
      val ws = assign(trace.msgSrc(i)); val wd = assign(trace.msgDst(i))
      if (ws != wd) {
        val mm = remote.getOrElseUpdate((trace.msgQid(i), trace.msgIter(i)), mutable.HashMap.empty)
        mm((ws, wd)) = mm.getOrElse((ws, wd), 0) + 1
      }
    }
    act.keysIterator.toVector.sorted.map { case (qid, iter) =>
      QueryIterStat(qid, iter,
        act((qid, iter)).toMap,
        remote.getOrElse((qid, iter), mutable.HashMap.empty).toMap)
    }
  }

  /** Stats grouped per query, iterations in order. */
  def byQuery(stats: Vector[QueryIterStat]): Map[Int, Vector[QueryIterStat]] =
    stats.groupBy(_.qid).map { case (q, v) => q -> v.sortBy(_.iter) }
}
