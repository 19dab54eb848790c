package repro.sim

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
  */
object LatencySimulator {

  private val Eps = 1e-12

  /** One iteration of one query: vertex work per worker (a k-length vector,
    * drained in place by [[share]]) and the communication + barrier delay
    * that follows the compute phase.
    */
  private final class IterCost(val work: Array[Double], val postDelay: Double)

  private def iterCost(s: BatchStats, row: Int, k: Int, mode: BarrierMode, c: CostModel): IterCost = {
    val involved = s.involved(row)
    // Every involved worker (computing or receiving) pays the fixed
    // per-(query, iteration) participation cost plus per-vertex work.
    val work = new Array[Double](k)
    var ws = involved
    while (ws != 0) {
      val w = java.lang.Long.numberOfTrailingZeros(ws)
      work(w) = c.tIterWorker + s.active(row, w) * c.tVertex
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
    new IterCost(work, comm + barrier)
  }

  /** Simulates one batch. `stats` must come from `IterationStats.compute`. */
  def simulateBatch(
      stats: BatchStats,
      k: Int,
      mode: BarrierMode,
      c: CostModel): BatchSim = {
    require(stats.width <= k, s"stats involve worker ${stats.width - 1}, beyond k = $k")
    val perQuery: Array[(Int, Array[IterCost])] =
      Array.tabulate(stats.queries) { i =>
        stats.queryId(i) -> stats.queryRows(i).map(iterCost(stats, _, k, mode, c)).toArray
      }
    mode match {
      case BarrierMode.SharedGlobal => simulateLockstep(perQuery, k, c)
      case _ => simulateDecoupled(perQuery, k)
    }
  }

  /** Processor sharing: worker w serves the n(w) jobs with work above Eps
    * on it at rate 1/n(w) each. Advances every job by dt, the smaller of
    * `bound` and the time until the first (job, worker) share drains, and
    * returns dt; it is infinite when no job has work and `bound` is.
    */
  private def share(jobs: Array[Array[Double]], k: Int, bound: Double): Double = {
    val n = new Array[Int](k)
    for (j <- jobs; w <- 0 until k) if (j(w) > Eps) n(w) += 1
    var dt = bound
    for (j <- jobs; w <- 0 until k) if (j(w) > Eps) dt = math.min(dt, j(w) * n(w))
    if (dt.isFinite) for (j <- jobs; w <- 0 until k) if (j(w) > Eps) {
      val r = j(w) - dt / n(w)
      j(w) = if (r < Eps) 0.0 else r
    }
    dt
  }

  /** Decoupled modes: every query is an independent job over its iteration
    * list; workers are processor-shared among queries in their compute phase.
    */
  private def simulateDecoupled(perQuery: Array[(Int, Array[IterCost])], k: Int): BatchSim = {
    final class QState(val qid: Int, val iters: Array[IterCost]) {
      var idx = 0
      var wakeAt: Double = Double.NaN // NaN = computing
      var doneAt: Double = Double.NaN
      def work: Array[Double] = iters(idx).work
      def done: Boolean = !doneAt.isNaN
      def computing: Boolean = !done && wakeAt.isNaN
      def waiting: Boolean = !done && !wakeAt.isNaN
      /** Ends the compute phase at `t` once no work is left. */
      def endCompute(t: Double): Unit = if (!work.exists(_ > Eps)) wakeAt = t + iters(idx).postDelay
    }
    val qs = perQuery.map { case (qid, its) => new QState(qid, its) }
    qs.foreach(_.endCompute(0.0))
    var t = 0.0
    var nDone = 0
    while (nDone < qs.length) {
      // Wake queries whose comm + barrier delay elapsed.
      for (q <- qs if q.waiting && q.wakeAt <= t + Eps) {
        q.idx += 1
        if (q.idx == q.iters.length) { q.doneAt = q.wakeAt; nDone += 1 }
        else { q.wakeAt = Double.NaN; q.endCompute(t) }
      }
      val computing = qs.filter(_.computing)
      if (computing.nonEmpty) {
        var bound = Double.PositiveInfinity
        for (q <- qs if q.waiting) bound = math.min(bound, q.wakeAt - t)
        val dt = share(computing.map(_.work), k, bound)
        require(dt > 0 && dt.isFinite, s"simulator stalled at t=$t (dt=$dt)")
        t += dt
        computing.foreach(_.endCompute(t))
      } else if (nDone < qs.length) {
        t = qs.iterator.filter(_.waiting).map(_.wakeAt).min
      }
    }
    BatchSim(qs.map(q => q.qid -> q.doneAt).toMap, if (qs.isEmpty) 0.0 else qs.map(_.doneAt).max)
  }

  /** Shared-global BSP: round r runs iteration r of every query that has
    * one, processor-shared; the round ends with a single global barrier all
    * running queries wait on. Communication of different queries overlaps
    * (the round pays the max, not the sum).
    */
  private def simulateLockstep(perQuery: Array[(Int, Array[IterCost])], k: Int, c: CostModel): BatchSim = {
    val rounds = perQuery.map(_._2.length).maxOption.getOrElse(0)
    val roundEnd = new Array[Double](rounds)
    val globalBarrier = c.tBarrierBase + c.tBarrierPerWorker * k
    var t = 0.0
    for (r <- 0 until rounds) {
      val round = perQuery.collect { case (_, its) if its.length > r => its(r) }
      val work = round.map(_.work)
      var compute = 0.0
      var dt = share(work, k, Double.PositiveInfinity)
      while (dt.isFinite) { compute += dt; dt = share(work, k, Double.PositiveInfinity) }
      t += compute
      t += round.map(_.postDelay).max
      t += globalBarrier
      roundEnd(r) = t
    }
    BatchSim(perQuery.map { case (qid, its) => qid -> roundEnd(its.length - 1) }.toMap, t)
  }
}
