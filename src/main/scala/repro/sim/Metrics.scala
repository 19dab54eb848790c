package repro.sim

import scala.collection.immutable

/** Partitioning-quality metrics of the paper's evaluation. */
object Metrics {

  /** Query locality (Fig. 6f): the percentage of iterations a query executes
    * completely locally on a single worker, averaged over queries.
    */
  def avgQueryLocality(stats: BatchStats): Double = {
    val per = queryLocality(stats)
    if (per.isEmpty) 1.0 else per.valuesIterator.sum / per.size
  }

  /** Per-query locality: fraction of the query's iterations whose active
    * vertices all sit on one worker (Section 3.4's adaptivity signal and
    * the Fig. 6f metric — see [[BatchStats.isComputeLocal]]). A hash map at
    * every size, so [[avgQueryLocality]] sums in the same order whatever
    * the number of queries.
    */
  def queryLocality(stats: BatchStats): immutable.HashMap[Int, Double] = {
    val b = immutable.HashMap.newBuilder[Int, Double]
    for (i <- 0 until stats.queries) {
      val rows = stats.queryRows(i)
      b += stats.queryId(i) -> rows.count(stats.isComputeLocal).toDouble / rows.length
    }
    b.result()
  }

  /** Per-worker activation counts of a batch (Fig. 6e's workload), indexed
    * by worker, `k` long.
    */
  def workerLoads(stats: BatchStats, k: Int): IndexedSeq[Long] = {
    require(stats.width <= k, s"stats involve worker ${stats.width - 1}, beyond k = $k")
    val load = Array.fill(k)(0L)
    for (row <- 0 until stats.size; w <- 0 until stats.width) load(w) += stats.active(row, w)
    immutable.ArraySeq.unsafeWrapArray(load)
  }

  /** Mean relative deviation of worker loads from their average. */
  def imbalanceOfLoads(load: Seq[Double]): Double = {
    val avg = load.sum / load.size
    if (avg == 0) 0.0 else load.map(l => math.abs(l - avg)).sum / load.size / avg
  }

  /** Number of recent batches whose worker loads are summed before taking
    * the imbalance, both for Fig. 6e and for the controller's trigger.
    */
  val ImbalanceWindow = 4

  /** Workload imbalance (Fig. 6e) of the worker loads summed over a window
    * of batches: workload is the number of active vertices a worker
    * executes, imbalance the mean relative deviation from the average
    * worker workload.
    */
  def windowImbalance(loads: Iterable[IndexedSeq[Long]], k: Int): Double = {
    val agg = Array.fill(k)(0.0)
    for (l <- loads; w <- l.indices) agg(w) += l(w).toDouble
    imbalanceOfLoads(agg.toSeq)
  }

  /** Fig. 6e's smoothed imbalance: the paper measures workload over 60 s
    * windows (several batches) with a sliding average; this sums worker
    * loads over a sliding window of `window` batches.
    */
  def slidingImbalance(loadsPerBatch: Seq[IndexedSeq[Long]], k: Int, window: Int = ImbalanceWindow): Vector[Double] =
    loadsPerBatch.indices.map { i =>
      windowImbalance(loadsPerBatch.slice(math.max(0, i - window + 1), i + 1), k)
    }.toVector
}
