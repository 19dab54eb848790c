package repro

import org.apache.spark.sql.DataFrame
import repro.engine._
import repro.graph.RoadNetwork
import repro.qcut.KargerClustering
import repro.sim.{BatchStats, IterationStats}
import repro.workload.QueryWorkload

/** Shared, lazily-built test data. All suites run in one JVM
  * (`Test / parallelExecution := false`), so expensive artefacts — cached
  * edge tables and engine traces — are built once per test run.
  */
object TestFixtures {

  /** 16x16 grid, 4 cities — the SF=0.01-regime unit-test graph. */
  lazy val tiny: RoadNetwork = tinyNetwork()

  /** [[tiny]]'s generator under another seed. */
  def tinyNetwork(seed: Long = 7): RoadNetwork =
    RoadNetwork.generate("tiny-16", side = 16, nCities = 4, tagRate = 25, seed = seed)

  /** 24x24 grid, 5 cities — used where a little more structure is needed. */
  lazy val small: RoadNetwork = RoadNetwork.generate("small-24", side = 24, nCities = 5, tagRate = 40, seed = 11)

  lazy val tinyEdges: DataFrame = BspEngine.prepareEdges(SparkSpec.shared, tiny)
  lazy val smallEdges: DataFrame = BspEngine.prepareEdges(SparkSpec.shared, small)

  /** 32 intra-urban SSSP queries on `small`, batches of 8. */
  lazy val smallSsspQueries: Vector[Query] =
    QueryWorkload.generate(small, 32, QueryKind.Sssp, batchSize = 8, seed = 5)

  /** Their traces (4 batches). */
  lazy val smallSsspTraces: Vector[BatchTrace] =
    BspEngine.runWorkload(SparkSpec.shared, smallEdges, small.isTagged, smallSsspQueries,
      maxIter = 400, astarSide = Some(small.side))

  /** 16 POI queries on `small`, batches of 8. */
  lazy val smallPoiQueries: Vector[Query] =
    QueryWorkload.generate(small, 16, QueryKind.Poi, batchSize = 8, seed = 6)

  lazy val smallPoiTraces: Vector[BatchTrace] =
    BspEngine.runWorkload(SparkSpec.shared, smallEdges, small.isTagged, smallPoiQueries,
      maxIter = 400, astarSide = Some(small.side))

  /** A hand-built trace, through the engine's column constructor; results
    * and final distances stay empty.
    */
  def trace(activations: Seq[ActRec], messages: Seq[MsgRec] = Nil, batchId: Int = 0,
      queries: Vector[Query] = Vector.empty, iterations: Int = 0): BatchTrace =
    new BatchTrace(batchId, queries, iterations,
      activations.map(_.qid).toArray, activations.map(_.iter).toArray, activations.map(_.vid).toArray,
      messages.map(_.qid).toArray, messages.map(_.iter).toArray, messages.map(_.src).toArray,
      messages.map(_.dst).toArray, Map.empty, Array.empty, Array.empty, Array.empty)

  /** Batch stats holding exactly `rows`: `IterationStats.compute` over a
    * trace in which vertex w stands for worker w. Every row needs an
    * activation, and its counts must be positive.
    */
  def stats(rows: Seq[Oracle.IterStat]): BatchStats = {
    require(rows.map(r => (r.qid, r.iter)).distinct.size == rows.size, "duplicate (qid, iter) row")
    require(rows.forall(r => r.actByWorker.nonEmpty && r.actByWorker.values.forall(_ > 0) &&
      r.remoteMsgs.forall { case ((a, b), n) => a != b && n > 0 }),
      "a row needs an activation, positive counts and remote pairs across two workers")
    val acts = for (r <- rows; (w, n) <- r.actByWorker.toSeq; _ <- 0 until n) yield ActRec(r.qid, r.iter, w)
    val msgs = for (r <- rows; ((a, b), n) <- r.remoteMsgs.toSeq; _ <- 0 until n) yield MsgRec(r.qid, r.iter, a, b)
    IterationStats.compute(trace(acts, msgs), w => w)
  }

  /** Hand-written overlap weights over `queryIds`, keyed by qid pairs
    * (a, b) with a < b, as `KargerClustering.cluster` takes them.
    */
  def overlaps(queryIds: IndexedSeq[Int], weights: Map[(Int, Int), Long]): KargerClustering.Overlaps = {
    val n = queryIds.length
    val weight = new Array[Long](n * n)
    for (((a, b), w) <- weights) {
      require(a < b, s"pair ($a, $b) is not ascending")
      weight(queryIds.indexOf(a) * n + queryIds.indexOf(b)) = w
    }
    new KargerClustering.Overlaps(queryIds, weight)
  }

  /** The nonzero weights of `o`, keyed by qid pairs (a, b) with a < b. */
  def overlapMap(o: KargerClustering.Overlaps): Map[(Int, Int), Long] = {
    val n = o.queryIds.length
    (for (i <- 0 until n; j <- 0 until n if o.weight(i * n + j) != 0)
      yield (o.queryIds(i), o.queryIds(j)) -> o.weight(i * n + j)).toMap
  }

  /** A hand-built 5-vertex weighted digraph for exact-arithmetic oracle
    * tests (small enough for a DuckDB recursive-CTE shortest path).
    *
    *   0 -> 1 (1.0), 0 -> 2 (4.0), 1 -> 2 (2.0), 1 -> 3 (6.0),
    *   2 -> 3 (3.0), 3 -> 4 (1.0), 2 -> 4 (7.0), 4 -> 0 (2.0)
    *
    * d(0, ·) = [0.0, 1.0, 3.0, 6.0, 7.0].
    */
  val pentaEdges: Seq[(Int, Int, Double)] = Seq(
    (0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0), (1, 3, 6.0),
    (2, 3, 3.0), (3, 4, 1.0), (2, 4, 7.0), (4, 0, 2.0))

  lazy val pentaEdgesDf: DataFrame = {
    val spark = SparkSpec.shared
    import spark.implicits._
    val df = spark.createDataset(pentaEdges).toDF("src", "dst", "weight").cache()
    df.count()
    df
  }

  val pentaAdjacency: Array[Array[(Int, Double)]] = {
    val adj = Array.fill(5)(scala.collection.mutable.ArrayBuffer.empty[(Int, Double)])
    for ((s, d, w) <- pentaEdges) adj(s) += ((d, w))
    adj.map(_.toArray)
  }
}
