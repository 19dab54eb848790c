package repro.engine

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Try

/** Read-only graph in compressed sparse rows: the out-edges of vertex `v`
  * are rows `offsets(v) until offsets(v + 1)` of `dst`/`weight`, sorted by
  * `dst`.
  */
private[engine] final class Csr(val offsets: Array[Int], val dst: Array[Int], val weight: Array[Double])
    extends Serializable {
  def numVertices: Int = offsets.length - 1
}

/** Batched multi-query vertex-centric BSP engine (Section 2 of the paper).
  *
  * All queries of a batch execute their iterations simultaneously: in each
  * BSP iteration the engine performs the three phases of the model —
  * communication (messages along out-edges), computation (distance
  * relaxation with a min message combiner, Pregel-style) and barrier
  * synchronisation (implicit in the lock-step loop).
  *
  * A trace is a pure function of (graph, batch), so the batch is the unit of
  * parallelism: the edge table is collected once into a CSR adjacency and
  * broadcast, and each batch runs its whole BSP loop as one Spark task over
  * that local adjacency — one Spark job per `runBatch`/`runWorkload` call.
  *
  * Queries write only query-private state (their own distance array),
  * matching the paper's write-isolation rule for concurrent analytics
  * queries.
  *
  * Goal-directed pruning: a query's bound is the distance of the nearest
  * goal it has reached so far (its end vertex for SSSP, a tagged vertex
  * for POI). Messages whose accumulated distance is already >= that bound
  * can never improve the answer on a positive-weight graph and are not
  * sent. This is what keeps hotspot queries *localized* — the property
  * Q-cut exploits. `pruned = false` yields full-graph settlement (the
  * query-agnostic "GraphX-style" baseline of Section 4.1).
  */
object BspEngine {

  /** The shared edge table `(src, dst, weight)` of a road network. */
  def prepareEdges(spark: SparkSession, network: repro.graph.RoadNetwork): DataFrame =
    network.edgesDf(spark)

  // Broadcast adjacency per edge table. Dataset has no value equality, so
  // entries are found by identity and dropped with their DataFrame.
  private val csrs = new java.util.WeakHashMap[DataFrame, Broadcast[Csr]]()

  private def csrOf(edgesDf: DataFrame): Broadcast[Csr] = csrs.synchronized {
    Option(csrs.get(edgesDf)).getOrElse {
      val rows = edgesDf.select("src", "dst", "weight").collect()
      val src = rows.map(_.getInt(0)); val dst = rows.map(_.getInt(1)); val w = rows.map(_.getDouble(2))
      val n = if (rows.isEmpty) 0 else math.max(src.max, dst.max) + 1
      val order = rows.indices.sortBy(i => (src(i), dst(i)))
      val offsets = new Array[Int](n + 1)
      src.foreach(s => offsets(s + 1) += 1)
      for (v <- 0 until n) offsets(v + 1) += offsets(v)
      val b = edgesDf.sparkSession.sparkContext.broadcast(
        new Csr(offsets, order.map(dst).toArray, order.map(w).toArray))
      csrs.put(edgesDf, b)
      b
    }
  }

  /** Executes one batch of queries to completion and returns its trace.
    *
    * @param edgesDf   `(src, dst, weight)` edge table
    * @param isTagged  POI tag predicate (from the road network); it travels
    *                  to the executor, so it must be serializable
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
      astarSide: Option[Int] = None): BatchTrace =
    run(spark, edgesDf, isTagged, Vector(queries.toVector), maxIter, pruned, astarSide).head

  /** Runs a workload, one Spark task per batch (queries within a batch in
    * lock-step — the paper's "16 parallel queries" setup). Traces come back
    * in batch order.
    */
  def runWorkload(
      spark: SparkSession,
      edgesDf: DataFrame,
      isTagged: Int => Boolean,
      queries: Seq[Query],
      maxIter: Int = 2000,
      pruned: Boolean = true,
      astarSide: Option[Int] = None): Vector[BatchTrace] =
    run(spark, edgesDf, isTagged, queries.groupBy(_.batch).toVector.sortBy(_._1).map(_._2.toVector),
      maxIter, pruned, astarSide)

  private def run(
      spark: SparkSession,
      edgesDf: DataFrame,
      isTagged: Int => Boolean,
      batches: Vector[Vector[Query]],
      maxIter: Int,
      pruned: Boolean,
      astarSide: Option[Int]): Vector[BatchTrace] = {
    for (qs <- batches) {
      require(qs.nonEmpty, "empty batch")
      require(qs.map(_.qid).distinct.size == qs.size, "duplicate qids in batch")
    }
    if (batches.isEmpty) return Vector.empty
    val csr = csrOf(edgesDf)
    // A failure inside a task comes back as the task's value and is
    // rethrown here as itself, not wrapped in a SparkException.
    spark.sparkContext.parallelize(batches, batches.size)
      .map(qs => Try(execute(csr.value, isTagged, qs, maxIter, pruned, astarSide)))
      .collect().toVector.map(_.get)
  }

  /** The BSP loop of one batch over a local adjacency. Queries run in qid
    * order in every iteration, iteration 0 included, whatever order the
    * batch lists them in: messages come out in (iter, qid, src, dst) order
    * and activations in (iter, qid, vid) order.
    */
  private def execute(
      csr: Csr,
      isTagged: Int => Boolean,
      queries: Vector[Query],
      maxIter: Int,
      pruned: Boolean,
      astarSide: Option[Int]): BatchTrace = {
    val qs = queries.sortBy(_.qid).toArray
    val n = math.max(csr.numVertices, qs.map(q => math.max(q.start, q.end)).max + 1)

    // Query-private vertex state dist(q, v); the shared graph is read-only.
    val dist = Array.fill(qs.length)(Array.fill(n)(Double.PositiveInfinity))
    // SSSP and POI are one nearest-goal search. Per query: the nearest goal
    // reached (-1 before any) and its distance, the pruning bound, which for
    // SSSP is always dist(end).
    val goal = Array.fill(qs.length)(-1)
    val bound = Array.fill(qs.length)(Double.PositiveInfinity)
    val lastActiveIter = new Array[Int](qs.length)

    val actQid, actIter, actVid = Array.newBuilder[Int]
    val msgQid, msgIter, msgSrc, msgDst = Array.newBuilder[Int]
    def activate(i: Int, iter: Int, vid: Int): Unit = {
      actQid += qs(i).qid; actIter += iter; actVid += vid
      lastActiveIter(i) = iter
    }

    val sssp = qs.map(_.kind == QueryKind.Sssp)
    def isGoal(i: Int, v: Int): Boolean = if (sssp(i)) v == qs(i).end else isTagged(v)
    // The one goal rule, at the start vertex and at every improved vertex:
    // a goal nearer than the bound, or as near with a smaller vid, wins.
    def reached(i: Int, v: Int, d: Double): Unit =
      if (isGoal(i, v) && (d < bound(i) || (d == bound(i) && v < goal(i)))) { goal(i) = v; bound(i) = d }

    // Admissible remaining-distance lower bound h(q, v) for A*-style pruning.
    val side = astarSide.getOrElse(0)
    val aStar = sssp.map(_ && astarSide.isDefined)
    def h(i: Int, v: Int): Double =
      if (aStar(i)) (math.abs(v % side - qs(i).end % side) + math.abs(v / side - qs(i).end / side)).toDouble
      else 0.0
    // A vertex reached at distance d can still improve the answer.
    def promising(i: Int, v: Int, d: Double): Boolean = d + h(i, v) < bound(i)

    for (i <- qs.indices) {
      dist(i)(qs(i).start) = 0.0
      activate(i, 0, qs(i).start)
      reached(i, qs(i).start, 0.0)
    }
    // A start vertex that already satisfies its goal sends no messages.
    val frontier: Array[Array[Int]] =
      qs.indices.map(i => Array(qs(i).start).filter(v => promising(i, v, 0.0))).toArray

    // Min combiner: one candidate distance per vertex, reset after each query.
    val cand = Array.fill(n)(Double.PositiveInfinity)
    var iter = 0
    while (frontier.exists(_.nonEmpty) && iter < maxIter) {
      for (i <- qs.indices) {
        val q = qs(i); val d = dist(i)
        // Communication: every message is pruned against the bound as it
        // stood at the start of the iteration, before any candidate below
        // tightens it. The frontier is sorted by vid and each CSR row by dst.
        val touched = Array.newBuilder[Int]
        for (v <- frontier(i) if v < csr.numVertices; e <- csr.offsets(v) until csr.offsets(v + 1)) {
          val u = csr.dst(e); val nd = d(v) + csr.weight(e)
          if (!pruned || promising(i, u, nd)) {
            msgQid += q.qid; msgIter += iter; msgSrc += v; msgDst += u
            if (cand(u) == Double.PositiveInfinity) touched += u
            cand(u) = math.min(cand(u), nd)
          }
        }
        // Computation, walked in vid order for a deterministic trace.
        val targets = touched.result()
        java.util.Arrays.sort(targets)
        val next = Array.newBuilder[Int]
        for (u <- targets) {
          val nd = cand(u)
          cand(u) = Double.PositiveInfinity
          activate(i, iter + 1, u)
          if (nd < d(u)) {
            d(u) = nd
            reached(i, u, nd)
            next += u
          }
        }
        // Vertices whose improved distance now violates the (possibly just
        // tightened) bound must not send either.
        frontier(i) = if (pruned) next.result().filter(v => promising(i, v, d(v))) else next.result()
      }
      iter += 1
    }
    require(iter < maxIter || frontier.forall(_.isEmpty),
      s"batch ${queries.head.batch} did not converge within $maxIter iterations")

    val results = qs.indices.map { i =>
      val q = qs(i)
      val found = goal(i) >= 0
      q.qid -> QueryResult(q.qid, found, if (found) bound(i) else Double.NaN, if (sssp(i)) q.end else goal(i),
        lastActiveIter(i))
    }.toMap

    val distQid, distVid = Array.newBuilder[Int]
    val distValue = Array.newBuilder[Double]
    for (i <- qs.indices; v <- 0 until n if dist(i)(v) < Double.PositiveInfinity) {
      distQid += qs(i).qid; distVid += v; distValue += dist(i)(v)
    }

    new BatchTrace(queries.head.batch, qs.toVector, iter,
      actQid.result(), actIter.result(), actVid.result(),
      msgQid.result(), msgIter.result(), msgSrc.result(), msgDst.result(),
      results, distQid.result(), distVid.result(), distValue.result())
  }
}
