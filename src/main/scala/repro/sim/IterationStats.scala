package repro.sim

import java.lang.Long.bitCount
import repro.engine.BatchTrace

/** Where every iteration of every query of one batch lands under a given
  * vertex->worker assignment: how many active vertices execute on each
  * worker, and which messages cross worker boundaries.
  *
  * This is the low-level realisation of the paper's high-level knowledge:
  * the activation counts are exactly the per-iteration |LS(q, w)| signal
  * workers piggyback onto barrier messages (Section 3.4).
  *
  * Storage is columnar. Rows are the (qid, iter) pairs with at least one
  * activation, sorted by (qid, iter); query `i` (in qid order) owns the rows
  * `queryRows(i)`. Per row there are:
  *   - the active-vertex count of every worker, row-major, `width` wide;
  *   - a bitmask of the computing workers and one of the involved workers:
  *     those computing and those exchanging messages with another worker
  *     (receivers must accept delivery before the next iteration starts);
  *   - the number of distinct (srcWorker, dstWorker) pairs with a
  *     cross-worker message, and the number of such messages. Messages whose
  *     endpoints share a worker are a free in-memory hand-off.
  *
  * Worker sets are 64-bit masks, so workers are 0 until
  * [[BatchStats.MaxWorkers]]. Stats are made only by
  * [[IterationStats.compute]], from a trace and an assignment.
  *
  * @param width one more than the largest involved worker (0 when empty)
  */
final class BatchStats private[sim] (
    val width: Int,
    queryIds: Array[Int],
    queryStart: Array[Int],
    rowIter: Array[Int],
    act: Array[Int],
    computeMask: Array[Long],
    involvedMask: Array[Long],
    pairs: Array[Int],
    remoteStart: Array[Int]) {

  /** Number of rows, i.e. of (qid, iter) pairs. */
  def size: Int = rowIter.length

  /** Number of queries with at least one activation. */
  def queries: Int = queryIds.length
  def queryId(i: Int): Int = queryIds(i)
  /** The rows of query `i`, iterations in order. */
  def queryRows(i: Int): Range = queryStart(i) until queryStart(i + 1)

  def iter(row: Int): Int = rowIter(row)
  /** Active vertices of `row` on worker `w` (`w < width`). */
  def active(row: Int, w: Int): Int = act(row * width + w)
  def computing(row: Int): Long = computeMask(row)
  def involved(row: Int): Long = involvedMask(row)
  /** Distinct (srcWorker, dstWorker) pairs with a cross-worker message. */
  def remotePairs(row: Int): Int = pairs(row)
  /** Cross-worker messages of `row`. */
  def remoteMsgs(row: Int): Int = remoteStart(row + 1) - remoteStart(row)

  /** Local in the paper's *metric* sense (Section 3.4 / Fig. 6f): the query
    * "executes completely locally on a single worker" in this iteration,
    * i.e. all active vertices share one worker. Message fan-out is not part
    * of the metric — this is what makes Hash's measured locality ~38% in
    * the paper (most iterations have tiny frontiers).
    */
  def isComputeLocal(row: Int): Boolean = bitCount(computeMask(row)) <= 1

  /** A fully local iteration in the *synchronization* sense: one computing
    * worker and no message leaves it — eligible for the communication-free
    * local barrier ("no distant vertices get activated via message
    * passing", Section 3.3).
    */
  def isLocal(row: Int): Boolean = remoteMsgs(row) == 0 && isComputeLocal(row)
}

object BatchStats {

  /** Worker sets are `Long` bitmasks. */
  final val MaxWorkers = 64
}

object IterationStats {

  /** Replays a (partition-invariant) batch trace against an assignment, in
    * a few linear passes over the trace columns. Every (qid, iter) with at
    * least one activation is one row; messages of any other (qid, iter) are
    * dropped. Every worker `assign` returns must be below
    * [[BatchStats.MaxWorkers]].
    */
  def compute(trace: BatchTrace, assign: Int => Int): BatchStats = {
    val aq = trace.actQid; val ai = trace.actIter
    // One flat slot table over the activations' qid and iteration ranges:
    // (qid, it) has the slot `(qid - qMin) * nIter + it - iMin`, and slots
    // are in (qid, iter) order.
    val (qMin, qMax) = range(aq); val (iMin, iMax) = range(ai)
    val (nq, nIter) = if (aq.isEmpty) (0, 0) else (qMax - qMin + 1, iMax - iMin + 1)
    val rowOfSlot = Array.fill(Math.multiplyExact(nq, nIter))(-1)
    val actSlot = slots(aq, ai, qMin, iMin, nIter, rowOfSlot)
    // Number the slots of activations in order: they are the rows.
    val queryIds = Array.newBuilder[Int]
    val queryStart = Array.newBuilder[Int]
    val rowIter = Array.newBuilder[Int]
    var rows = 0
    for (q <- 0 until nq) {
      val first = rows
      for (it <- 0 until nIter if rowOfSlot(q * nIter + it) == 0) {
        rowOfSlot(q * nIter + it) = rows
        rowIter += iMin + it
        rows += 1
      }
      if (rows > first) { queryIds += qMin + q; queryStart += first }
    }
    queryStart += rows
    // `assign` is called in `workers` only: a caller passing another
    // function class then deoptimises that one small loop, not the others.
    val actWorker = workers(trace.actVid, assign)
    val remoteStart = new Array[Int](rows + 1)
    val cross = crossing(trace, workers(trace.msgSrc, assign), workers(trace.msgDst, assign),
      qMin, nq, iMin, nIter, rowOfSlot, remoteStart)
    val width = 1 + math.max(max(actWorker, actWorker.length), math.max(max(cross.src, cross.n), max(cross.dst, cross.n)))

    val act = new Array[Int](rows * width)
    val computeMask = new Array[Long](rows)
    countActivations(actSlot, actWorker, rowOfSlot, width, act, computeMask)
    val involvedMask = computeMask.clone()
    val remotePair = new Array[Int](cross.n)
    bucket(cross, width, remoteStart, remotePair, involvedMask)
    new BatchStats(width, queryIds.result(), queryStart.result(), rowIter.result(), act,
      computeMask, involvedMask, distinctPairs(remoteStart, remotePair, width), remoteStart)
  }

  /** The largest of `xs(0 until n)`, or -1. */
  private def max(xs: Array[Int], n: Int): Int = {
    var m = -1
    var i = 0
    while (i < n) { if (xs(i) > m) m = xs(i); i += 1 }
    m
  }

  /** The smallest and the largest of `xs`. */
  private def range(xs: Array[Int]): (Int, Int) = {
    var lo = Int.MaxValue; var hi = Int.MinValue
    var i = 0
    while (i < xs.length) { if (xs(i) < lo) lo = xs(i); if (xs(i) > hi) hi = xs(i); i += 1 }
    (lo, hi)
  }

  /** The slot of every activation; marks each such slot with 0. */
  private def slots(qid: Array[Int], iter: Array[Int], qMin: Int, iMin: Int, nIter: Int,
      rowOfSlot: Array[Int]): Array[Int] = {
    val out = new Array[Int](qid.length)
    var i = 0
    while (i < qid.length) {
      out(i) = (qid(i) - qMin) * nIter + iter(i) - iMin
      rowOfSlot(out(i)) = 0
      i += 1
    }
    out
  }

  private def workers(vids: Array[Int], assign: Int => Int): Array[Int] = {
    val out = new Array[Int](vids.length)
    var i = 0
    while (i < vids.length) {
      val w = assign(vids(i))
      if (w < 0 || w >= BatchStats.MaxWorkers) throw new IllegalArgumentException(
        s"requirement failed: worker $w is outside 0..${BatchStats.MaxWorkers - 1}: " +
          s"batch stats support at most ${BatchStats.MaxWorkers} workers")
      out(i) = w
      i += 1
    }
    out
  }

  /** The first `n` entries are the row, source worker and target worker of
    * every message on a row whose endpoints lie on two workers; `crossing`
    * also counts them per row r into `remoteStart(r + 1)`.
    */
  private final class Crossing(val n: Int, val row: Array[Int], val src: Array[Int], val dst: Array[Int])

  private def crossing(trace: BatchTrace, srcWorker: Array[Int], dstWorker: Array[Int], qMin: Int, nq: Int,
      iMin: Int, nIter: Int, rowOfSlot: Array[Int], remoteStart: Array[Int]): Crossing = {
    val mq = trace.msgQid; val mi = trace.msgIter
    val row = new Array[Int](mq.length); val src = new Array[Int](mq.length); val dst = new Array[Int](mq.length)
    var n = 0
    var i = 0
    while (i < mq.length) {
      val q = mq(i) - qMin
      val it = mi(i) - iMin
      if (srcWorker(i) != dstWorker(i) && q >= 0 && q < nq && it >= 0 && it < nIter) {
        val r = rowOfSlot(q * nIter + it)
        if (r >= 0) {
          row(n) = r; src(n) = srcWorker(i); dst(n) = dstWorker(i)
          n += 1
          remoteStart(r + 1) += 1
        }
      }
      i += 1
    }
    new Crossing(n, row, src, dst)
  }

  private def countActivations(actSlot: Array[Int], actWorker: Array[Int], rowOfSlot: Array[Int], width: Int,
      act: Array[Int], computeMask: Array[Long]): Unit = {
    var i = 0
    while (i < actSlot.length) {
      val r = rowOfSlot(actSlot(i))
      act(r * width + actWorker(i)) += 1
      computeMask(r) |= 1L << actWorker(i)
      i += 1
    }
  }

  /** Buckets the crossing messages by row (a counting sort over the counts
    * in `remoteStart`) as pair codes `src * width + dst`, and adds their
    * workers to the involved masks.
    */
  private def bucket(cross: Crossing, width: Int, remoteStart: Array[Int], remotePair: Array[Int],
      involvedMask: Array[Long]): Unit = {
    var r = 0
    while (r + 1 < remoteStart.length) { remoteStart(r + 1) += remoteStart(r); r += 1 }
    val next = java.util.Arrays.copyOf(remoteStart, remoteStart.length)
    var i = 0
    while (i < cross.n) {
      val row = cross.row(i); val ws = cross.src(i); val wd = cross.dst(i)
      remotePair(next(row)) = ws * width + wd
      next(row) += 1
      involvedMask(row) |= (1L << ws) | (1L << wd)
      i += 1
    }
  }

  /** Distinct pair codes per row: a code counts when first stamped with the
    * row, whatever the order of the row's messages.
    */
  private def distinctPairs(remoteStart: Array[Int], remotePair: Array[Int], width: Int): Array[Int] = {
    val rows = remoteStart.length - 1
    val stamp = new Array[Int](width * width)
    val pairs = new Array[Int](rows)
    var r = 0
    while (r < rows) {
      var j = remoteStart(r)
      while (j < remoteStart(r + 1)) {
        val p = remotePair(j)
        if (stamp(p) != r + 1) { stamp(p) = r + 1; pairs(r) += 1 }
        j += 1
      }
      r += 1
    }
    pairs
  }
}
