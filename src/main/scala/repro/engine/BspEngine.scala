package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import scala.collection.mutable

/** Batched multi-query vertex-centric BSP engine (Section 2 of the paper).
  *
  * All queries of a batch execute their iterations simultaneously: in each
  * BSP iteration the engine performs the three phases of the model —
  * computation (distance relaxation with a min message combiner),
  * communication (messages along out-edges) and barrier synchronisation
  * (implicit in the lock-step loop). Message generation (the frontier x
  * edges broadcast join) is the one Spark DataFrame operation per
  * iteration; it runs over the shared edge table and is the part whose cost
  * scales with the graph. Its rows are collected once, and pruning and
  * message combining (min per (query, vertex)) run on the driver.
  *
  * Queries write only query-private state (their own distance map), matching
  * the paper's write-isolation rule for concurrent analytics queries.
  *
  * Goal-directed pruning: messages whose accumulated distance is already
  * >= the query's current bound (distance of the SSSP end vertex / nearest
  * tagged vertex found so far) can never improve the answer on a
  * positive-weight graph and are not sent. This is what keeps hotspot
  * queries *localized* — the property Q-cut exploits. `pruned = false`
  * yields full-graph settlement (the query-agnostic "GraphX-style"
  * baseline of Section 4.1).
  */
object BspEngine {

  /** Creates and caches the shared edge table for a road network. */
  def prepareEdges(spark: SparkSession, network: repro.graph.RoadNetwork): DataFrame = {
    val df = network.edgesDf(spark).cache()
    df.count() // materialise before the iteration loop
    df
  }

  /** Executes one batch of queries to completion and returns its trace.
    *
    * @param edgesDf   cached `(src, dst, weight)` edge table
    * @param isTagged  POI tag predicate (from the road network)
    * @param queries   the batch (any size; the paper uses 16)
    * @param maxIter   safety bound on BSP iterations
    * @param pruned    enable goal-directed pruning (disable for the
    *                  full-graph baseline)
    * @param astarSide grid side length: when set, SSSP pruning additionally
    *                  uses the admissible Manhattan lower bound (every grid
    *                  edge costs >= 1.0), i.e. A*-style goal direction as
    *                  used by real route planners. Exactness of the
    *                  start-end distance is preserved; scopes become compact
    *                  corridors around the route — the locality Q-cut
    *                  exploits. Leave None for non-grid graphs.
    */
  def runBatch(
      spark: SparkSession,
      edgesDf: DataFrame,
      isTagged: Int => Boolean,
      queries: Seq[Query],
      maxIter: Int = 2000,
      pruned: Boolean = true,
      astarSide: Option[Int] = None): BatchTrace = {
    import spark.implicits._
    require(queries.nonEmpty, "empty batch")
    require(queries.map(_.qid).distinct.size == queries.size, "duplicate qids in batch")
    val byQid = queries.map(q => q.qid -> q).toMap
    val batchId = queries.head.batch

    // Query-private vertex state: dist(q, v); the shared graph is read-only.
    val state = mutable.HashMap.empty[(Int, Int), Double]
    // Pruning bound per query: SSSP -> current dist(end); POI -> best tagged dist.
    val bound = mutable.HashMap.empty[Int, Double]
    // POI best candidate (dist, vid), tie-break on smaller vid.
    val poiBest = mutable.HashMap.empty[Int, (Double, Int)]

    val activations = mutable.ArrayBuffer.empty[ActRec]
    val messages = mutable.ArrayBuffer.empty[MsgRec]
    val lastActiveIter = mutable.HashMap.empty[Int, Int]

    // Admissible remaining-distance lower bound h(q, v) for A*-style pruning.
    val hFor: Map[Int, Int => Double] = queries.map { q =>
      q.qid -> ((astarSide, q.kind) match {
        case (Some(side), QueryKind.Sssp) =>
          val ex = q.end % side; val ey = q.end / side
          (v: Int) => (math.abs(v % side - ex) + math.abs(v / side - ey)).toDouble
        case _ => (_: Int) => 0.0
      })
    }.toMap
    // A vertex reached at distance d can still improve the answer.
    def promising(qid: Int, vid: Int, d: Double): Boolean = d + hFor(qid)(vid) < bound(qid)

    var frontier = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    for (q <- queries) {
      state((q.qid, q.start)) = 0.0
      activations += ActRec(q.qid, 0, q.start)
      lastActiveIter(q.qid) = 0
      q.kind match {
        case QueryKind.Sssp =>
          if (q.start == q.end) bound(q.qid) = 0.0
          else bound(q.qid) = Double.PositiveInfinity
        case QueryKind.Poi =>
          if (isTagged(q.start)) { bound(q.qid) = 0.0; poiBest(q.qid) = (0.0, q.start) }
          else bound(q.qid) = Double.PositiveInfinity
      }
      frontier += ((q.qid, q.start, 0.0))
    }
    // A start vertex that already satisfies its goal sends no messages.
    frontier = frontier.filter { case (qid, vid, d) => promising(qid, vid, d) }

    var iter = 0
    while (frontier.nonEmpty && iter < maxIter) {
      val frontierDf = spark.createDataset(frontier.toSeq).toDF("qid", "vid", "fdist")
      val rawMsgs = broadcast(frontierDf)
        .join(edgesDf, frontierDf("vid") === edgesDf("src"))
        .select(col("qid"), col("src"), col("dst"), (col("fdist") + col("weight")).as("nd"))
        .as[(Int, Int, Int, Double)]
        .collect()
      // Every row is pruned against the bounds as they stood at the start of
      // the iteration, before any candidate below tightens one.
      val msgs = if (pruned) rawMsgs.filter { case (qid, _, dst, nd) => promising(qid, dst, nd) } else rawMsgs

      msgs.sortBy(t => (t._1, t._2, t._3))
        .foreach { case (qid, src, dst, _) => messages += MsgRec(qid, iter, src, dst) }

      // Min combiner: one candidate distance per (query, vertex).
      val cand = msgs.groupMapReduce(t => (t._1, t._3))(_._4)(math.min)

      val next = mutable.ArrayBuffer.empty[(Int, Int, Double)]
      // Sort for deterministic trace/state ordering regardless of hash order.
      for (((qid, vid), nd) <- cand.toSeq.sortBy(_._1)) {
        activations += ActRec(qid, iter + 1, vid)
        lastActiveIter(qid) = iter + 1
        val key = (qid, vid)
        if (nd < state.getOrElse(key, Double.PositiveInfinity)) {
          state(key) = nd
          byQid(qid).kind match {
            case QueryKind.Sssp =>
              if (vid == byQid(qid).end && nd < bound(qid)) bound(qid) = nd
            case QueryKind.Poi =>
              if (isTagged(vid)) {
                val cur = poiBest.get(qid)
                if (cur.isEmpty || nd < cur.get._1 || (nd == cur.get._1 && vid < cur.get._2)) {
                  poiBest(qid) = (nd, vid)
                  bound(qid) = nd
                }
              }
          }
          next += ((qid, vid, nd))
        }
      }
      // Vertices whose improved distance now violates the (possibly just
      // tightened) bound must not send either.
      frontier = if (pruned) next.filter { case (qid, vid, d) => promising(qid, vid, d) } else next
      iter += 1
    }
    require(iter < maxIter || frontier.isEmpty,
      s"batch $batchId did not converge within $maxIter iterations")

    val results = queries.map { q =>
      q.kind match {
        case QueryKind.Sssp =>
          val d = state.get((q.qid, q.end)).orElse(if (q.start == q.end) Some(0.0) else None)
          q.qid -> QueryResult(q.qid, d.isDefined, d.getOrElse(Double.NaN), q.end, lastActiveIter(q.qid))
        case QueryKind.Poi =>
          val best = poiBest.get(q.qid)
          q.qid -> QueryResult(q.qid, best.isDefined, best.map(_._1).getOrElse(Double.NaN),
            best.map(_._2).getOrElse(-1), lastActiveIter(q.qid))
      }
    }.toMap

    val finalDistances: Map[Int, Map[Int, Double]] =
      state.groupBy(_._1._1).map { case (qid, m) => qid -> m.map { case ((_, v), d) => v -> d }.toMap }

    BatchTrace(batchId, queries.toVector, iter, activations.toVector, messages.toVector,
      results, finalDistances)
  }

  /** Runs a workload batch-by-batch (batches execute sequentially, queries
    * within a batch in parallel — the paper's "16 parallel queries" setup).
    */
  def runWorkload(
      spark: SparkSession,
      edgesDf: DataFrame,
      isTagged: Int => Boolean,
      queries: Seq[Query],
      maxIter: Int = 2000,
      pruned: Boolean = true,
      astarSide: Option[Int] = None): Vector[BatchTrace] =
    queries.groupBy(_.batch).toVector.sortBy(_._1).map { case (_, qs) =>
      runBatch(spark, edgesDf, isTagged, qs, maxIter, pruned, astarSide)
    }
}
