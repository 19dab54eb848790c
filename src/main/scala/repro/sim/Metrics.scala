package repro.sim

/** Partitioning-quality metrics of the paper's evaluation. */
object Metrics {

  /** Query locality (Fig. 6f): the percentage of iterations a query executes
    * completely locally on a single worker, averaged over queries.
    */
  def avgQueryLocality(stats: Vector[QueryIterStat]): Double = {
    val per = queryLocality(stats)
    if (per.isEmpty) 1.0 else per.valuesIterator.sum / per.size
  }

  /** Per-query locality: fraction of the query's iterations whose active
    * vertices all sit on one worker (Section 3.4's adaptivity signal and
    * the Fig. 6f metric — see [[QueryIterStat.isComputeLocal]]).
    */
  def queryLocality(stats: Vector[QueryIterStat]): Map[Int, Double] =
    IterationStats.byQuery(stats).map { case (qid, its) =>
      qid -> its.count(_.isComputeLocal).toDouble / its.length
    }

  /** Workload imbalance (Fig. 6e): workload is the number of active vertices
    * a worker executes during the batch; imbalance is the mean relative
    * deviation from the average worker workload.
    */
  def workloadImbalance(stats: Vector[QueryIterStat], k: Int): Double =
    windowImbalance(Seq(workerLoads(stats, k)), k)

  /** Per-worker activation counts of a batch. */
  def workerLoads(stats: Vector[QueryIterStat], k: Int): Map[Int, Long] = {
    val load = Array.fill(k)(0L)
    for (s <- stats; (w, n) <- s.actByWorker) load(w) += n
    (0 until k).map(w => w -> load(w)).toMap
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

  /** Imbalance of the worker loads summed over a window of batches. */
  def windowImbalance(loads: Iterable[Map[Int, Long]], k: Int): Double = {
    val agg = Array.fill(k)(0.0)
    for (m <- loads; (w, n) <- m) agg(w) += n.toDouble
    imbalanceOfLoads(agg.toSeq)
  }

  /** Fig. 6e's smoothed imbalance: the paper measures workload over 60 s
    * windows (several batches) with a sliding average; this sums worker
    * loads over a sliding window of `window` batches.
    */
  def slidingImbalance(loadsPerBatch: Seq[Map[Int, Long]], k: Int, window: Int = ImbalanceWindow): Vector[Double] =
    loadsPerBatch.indices.map { i =>
      windowImbalance(loadsPerBatch.slice(math.max(0, i - window + 1), i + 1), k)
    }.toVector
}
