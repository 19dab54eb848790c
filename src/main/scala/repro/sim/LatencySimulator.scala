package repro.sim

import java.lang.Long.numberOfTrailingZeros
import repro.sync.BarrierMode

/** Simulated outcome of one batch.
  *
  * @param latency  per-query latency: time from batch start (= query
  *                 scheduling) until the query's last barrier completes —
  *                 the paper's query-latency definition (last minus first
  *                 instant with an active vertex)
  * @param makespan time until the whole batch drains
  */
final case class BatchSim(latency: Map[Int, Double], makespan: Double) {
  def sumLatency: Double = latency.valuesIterator.sum
  def avgLatency: Double = if (latency.isEmpty) 0.0 else sumLatency / latency.size
}

/** Trace-driven discrete-event simulator of the Q-Graph runtime.
  *
  * Workers are modelled as processor-sharing servers: in every instant a
  * worker's compute capacity is split equally among the queries that
  * currently have pending vertex work on it. This reproduces the contention
  * effects the paper observes (straggler problems on imbalanced Domain
  * partitions, Berlin's worker serialising its queries) without modelling
  * individual threads.
  *
  * One iteration of one query proceeds as: compute phase (vertex work on
  * every involved worker, processor-shared) -> communication (per-pair batch
  * flush + per-message cost for cross-worker messages) -> barrier (cost
  * depends on the synchronisation model, see [[repro.sync.BarrierMode]]).
  *
  * Under [[BarrierMode.SharedGlobal]] all queries advance in lock-step
  * rounds and share a single global barrier per round; under the decoupled
  * modes each query runs its own iteration clock.
  *
  * The kernel works on flat arrays, one entry per row of the
  * [[BatchStats]] (one iteration of one query): the work left on each
  * worker, `k` wide and drained in place; the post-compute delay; and a
  * bitmask of the workers that still have work. A job is the row a query
  * is computing; a step allocates nothing.
  */
object LatencySimulator {

  private val Eps = 1e-12

  /** The compute work of every row and the communication + barrier delay
    * that follows it.
    */
  private final class Rows(s: BatchStats, val k: Int, mode: BarrierMode, c: CostModel) {
    val work = new Array[Double](s.size * k)
    val post = new Array[Double](s.size)
    /** Workers with work above Eps left, per row. */
    val live = new Array[Long](s.size)

    locally {
      var row = 0
      while (row < s.size) {
        val involved = s.involved(row)
        // Every involved worker (computing or receiving) pays the fixed
        // per-(query, iteration) participation cost plus per-vertex work.
        var ws = involved
        while (ws != 0) {
          val w = numberOfTrailingZeros(ws)
          val x = c.tIterWorker + s.active(row, w) * c.tVertex
          work(row * k + w) = x
          if (x > Eps) live(row) |= 1L << w
          ws &= ws - 1
        }
        val remote = s.remoteMsgs(row)
        val comm =
          if (remote == 0) 0.0
          else c.tFlushPair * s.remotePairs(row) + c.tMsgRemote * remote
        val barrier = mode match {
          // Paid once per round, in `simulateLockstep`, not per query.
          case BarrierMode.SharedGlobal => 0.0
          case BarrierMode.Hybrid =>
            if (s.isLocal(row)) c.tBarrierLocal
            else c.tBarrierBase + c.tBarrierPerWorker * java.lang.Long.bitCount(involved)
          case BarrierMode.PerQueryGlobal => c.tBarrierBase + c.tBarrierPerWorker * k
        }
        post(row) = comm + barrier
        row += 1
      }
    }

    /** Per-worker count of jobs with work left, filled by [[share]]. */
    private val n = new Array[Int](k)

    /** Processor sharing: worker w serves the n(w) jobs with work above Eps
      * on it at rate 1/n(w) each. Advances the jobs `rows(0 until jobs)` by
      * dt, the smaller of `bound` and the time until the first (job,
      * worker) share drains, and returns dt; it is infinite when no job has
      * work and `bound` is.
      */
    def share(rows: Array[Int], jobs: Int, bound: Double): Double = {
      java.util.Arrays.fill(n, 0)
      var j = 0
      while (j < jobs) {
        var ws = live(rows(j))
        while (ws != 0) { n(numberOfTrailingZeros(ws)) += 1; ws &= ws - 1 }
        j += 1
      }
      var dt = bound
      j = 0
      while (j < jobs) {
        val base = rows(j) * k
        var ws = live(rows(j))
        while (ws != 0) {
          val w = numberOfTrailingZeros(ws)
          dt = math.min(dt, work(base + w) * n(w))
          ws &= ws - 1
        }
        j += 1
      }
      if (dt.isFinite) {
        j = 0
        while (j < jobs) {
          val row = rows(j)
          val base = row * k
          var ws = live(row)
          while (ws != 0) {
            val w = numberOfTrailingZeros(ws)
            val r = work(base + w) - dt / n(w)
            val left = if (r < Eps) 0.0 else r
            work(base + w) = left
            if (!(left > Eps)) live(row) &= ~(1L << w)
            ws &= ws - 1
          }
          j += 1
        }
      }
      dt
    }
  }

  /** Simulates one batch. `stats` must come from `IterationStats.compute`. */
  def simulateBatch(
      stats: BatchStats,
      k: Int,
      mode: BarrierMode,
      c: CostModel): BatchSim = {
    require(stats.width <= k, s"stats involve worker ${stats.width - 1}, beyond k = $k")
    val rows = new Rows(stats, k, mode, c)
    mode match {
      case BarrierMode.SharedGlobal => simulateLockstep(stats, rows, c)
      case _ => simulateDecoupled(stats, rows)
    }
  }

  /** The latency of every query, added in qid order: a map of up to four
    * entries iterates in insertion order, and `BatchSim.sumLatency` sums in
    * that order.
    */
  private def latencies(s: BatchStats, of: Int => Double): Map[Int, Double] = {
    val b = Map.newBuilder[Int, Double]
    for (i <- 0 until s.queries) b += s.queryId(i) -> of(i)
    b.result()
  }

  /** Decoupled modes: every query is an independent job over its rows;
    * workers are processor-shared among queries in their compute phase.
    */
  private def simulateDecoupled(s: BatchStats, rows: Rows): BatchSim = {
    val nq = s.queries
    val row = Array.tabulate(nq)(s.queryRows(_).start)
    val end = Array.tabulate(nq)(s.queryRows(_).end)
    // NaN = computing.
    val wakeAt = Array.fill(nq)(Double.NaN)
    // NaN = not done.
    val doneAt = Array.fill(nq)(Double.NaN)
    val jobs = new Array[Int](nq)
    val jobQuery = new Array[Int](nq)
    /** Ends query q's compute phase at `t` once no work is left. */
    def endCompute(q: Int, t: Double): Unit = if (rows.live(row(q)) == 0) wakeAt(q) = t + rows.post(row(q))
    def waiting(q: Int): Boolean = doneAt(q).isNaN && !wakeAt(q).isNaN

    var q = 0
    while (q < nq) { endCompute(q, 0.0); q += 1 }
    var t = 0.0
    var nDone = 0
    while (nDone < nq) {
      // Wake queries whose comm + barrier delay elapsed.
      q = 0
      while (q < nq) {
        if (waiting(q) && wakeAt(q) <= t + Eps) {
          row(q) += 1
          if (row(q) == end(q)) { doneAt(q) = wakeAt(q); nDone += 1 }
          else { wakeAt(q) = Double.NaN; endCompute(q, t) }
        }
        q += 1
      }
      var nJobs = 0
      var bound = Double.PositiveInfinity
      q = 0
      while (q < nq) {
        if (doneAt(q).isNaN) {
          if (wakeAt(q).isNaN) { jobs(nJobs) = row(q); jobQuery(nJobs) = q; nJobs += 1 }
          else bound = math.min(bound, wakeAt(q) - t)
        }
        q += 1
      }
      if (nJobs > 0) {
        val dt = rows.share(jobs, nJobs, bound)
        require(dt > 0 && dt.isFinite, s"simulator stalled at t=$t (dt=$dt)")
        t += dt
        var j = 0
        while (j < nJobs) { endCompute(jobQuery(j), t); j += 1 }
      } else if (nDone < nq) {
        // Every query left is waiting: jump to the first wake-up.
        t = Double.PositiveInfinity
        q = 0
        while (q < nq) { if (waiting(q)) t = math.min(t, wakeAt(q)); q += 1 }
      }
    }
    BatchSim(latencies(s, doneAt(_)), if (nq == 0) 0.0 else doneAt.max)
  }

  /** Shared-global BSP: round r runs iteration r of every query that has
    * one, processor-shared; the round ends with a single global barrier all
    * running queries wait on. Communication of different queries overlaps
    * (the round pays the max, not the sum).
    */
  private def simulateLockstep(s: BatchStats, rows: Rows, c: CostModel): BatchSim = {
    val nq = s.queries
    val start = Array.tabulate(nq)(s.queryRows(_).start)
    val length = Array.tabulate(nq)(s.queryRows(_).length)
    val rounds = if (nq == 0) 0 else length.max
    val roundEnd = new Array[Double](rounds)
    val globalBarrier = c.tBarrierBase + c.tBarrierPerWorker * rows.k
    val jobs = new Array[Int](nq)
    var t = 0.0
    var r = 0
    while (r < rounds) {
      var nJobs = 0
      var maxPost = Double.NegativeInfinity
      var q = 0
      while (q < nq) {
        if (length(q) > r) {
          jobs(nJobs) = start(q) + r
          maxPost = math.max(maxPost, rows.post(jobs(nJobs)))
          nJobs += 1
        }
        q += 1
      }
      var compute = 0.0
      var dt = rows.share(jobs, nJobs, Double.PositiveInfinity)
      while (dt.isFinite) { compute += dt; dt = rows.share(jobs, nJobs, Double.PositiveInfinity) }
      t += compute
      t += maxPost
      t += globalBarrier
      roundEnd(r) = t
      r += 1
    }
    BatchSim(latencies(s, i => roundEnd(length(i) - 1)), t)
  }
}
