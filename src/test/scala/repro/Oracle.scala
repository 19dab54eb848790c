package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.engine.BatchTrace
import repro.graph.RoadNetwork
import repro.qcut.{Atom, LocalSearch, QCutState}
import scala.util.Random
import repro.sim.{BatchSim, BatchStats, CostModel}
import repro.sync.BarrierMode
import scala.collection.mutable

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  *
  * Further members are DataFrame twins of driver-side structures: the
  * Spark inputs of the oracle checks, and Spark re-implementations of the
  * per-worker aggregations the tests cross-check. The last ones are the
  * Q-cut definitions the incremental search must agree with (among them
  * the paper's |LS(q, w)| and I_w, and the perturbation as written before
  * its primitive loops), and the paper's query-cut metric and ILS cost
  * evaluated directly on a trace. The last is the latency simulator as
  * written before its flat-array kernel.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }

  def activationsDf(spark: SparkSession, t: BatchTrace): DataFrame = {
    import spark.implicits._
    spark.createDataset(t.activations).toDF()
  }

  def messagesDf(spark: SparkSession, t: BatchTrace): DataFrame = {
    import spark.implicits._
    spark.createDataset(t.messages).toDF()
  }

  /** A vertex assignment as a `(vid, worker)` DataFrame. */
  def assignmentDf(spark: SparkSession, assign: Array[Int]): DataFrame = {
    import spark.implicits._
    spark.createDataset(assign.toIndexedSeq.zipWithIndex.map { case (w, v) => (v, w) })
      .toDF("vid", "worker")
  }

  /** Vertices as a DataFrame: `vid, x, y, city, tagged`. */
  def verticesDf(spark: SparkSession, g: RoadNetwork): DataFrame = {
    import spark.implicits._
    val rows = (0 until g.numVertices).map(v => (v, g.xOf(v), g.yOf(v), g.cityOf(v), g.isTagged(v)))
    spark.createDataset(rows).toDF("vid", "x", "y", "city", "tagged")
  }

  /** Scope atoms as `(sig, worker, size)` rows, the Spark twin of
    * `ScopeAtoms.build`.
    */
  def atomsDf(activationsDf: DataFrame, assignmentDf: DataFrame): DataFrame =
    activationsDf.select("qid", "vid").distinct()
      .join(assignmentDf, "vid")
      .groupBy(col("vid"), col("worker"))
      .agg(sort_array(collect_set(col("qid"))).as("sig"))
      .groupBy(col("sig"), col("worker"))
      .agg(count(lit(1)).as("size"))

  /** Local scope sizes |LS(q, w)| as `(qid, worker, scope_size)` rows. */
  def localScopesDf(activationsDf: DataFrame, assignmentDf: DataFrame): DataFrame =
    activationsDf.select("qid", "vid").distinct()
      .join(assignmentDf, "vid")
      .groupBy(col("qid"), col("worker"))
      .agg(count(lit(1)).as("scope_size"))

  /** The atoms `moveCluster(c, from, _)` moves, by definition: every atom
    * on `from` whose signature holds a query of cluster `c`, ascending.
    */
  def atomsOn(s: QCutState, c: Int, from: Int): Vector[Int] =
    s.atoms.indices.filter { i =>
      s.assign(i) == from && s.atoms(i).sig.exists(q => s.clusterOfQuery(s.queryIds.indexOf(q)) == c)
    }.toVector

  /** `QCutState.build` afresh from the atoms where `s` has put them, each
    * worker `w` renamed `rename(w)`; `untouched(w)` is the number of
    * vertices on `w` that no atom holds.
    */
  def rebuilt(s: QCutState, untouched: Array[Long], rename: Int => Int = w => w): QCutState = {
    val atoms = s.atoms.indices.map(i => s.atoms(i).copy(worker = rename(s.assign(i))))
    val totals = new Array[Long](s.k)
    for (w <- 0 until s.k) totals(rename(w)) += untouched(w)
    atoms.foreach(a => totals(a.worker) += a.size)
    QCutState.build(atoms, totals, s.k, s.delta, s.clusterOfQuery)
  }

  /** Everything a Q-cut state shows: its cost, every load L_w, every local
    * scope |LS(q, w)| and every cluster scope.
    */
  def counts(s: QCutState): (Long, Seq[Double], Seq[Long], Seq[Long]) =
    (s.cost, (0 until s.k).map(s.load),
      for (q <- 0 until s.nQueries; w <- 0 until s.k) yield s.localScope(q, w),
      for (c <- 0 until s.nClusters; w <- 0 until s.k) yield s.clusterScope(c, w))

  /** `LocalSearch.bestSuccessor` by brute force: apply every successor to a
    * copy, keep it if the moved pair's workloads satisfy the δ-constraint,
    * compute the full cost; the first cheapest wins.
    */
  def bestSuccessor(s: QCutState): Option[(LocalSearch.Move, Long)] = {
    var best: Option[(LocalSearch.Move, Long)] = None
    for (c <- 0 until s.nClusters; from <- 0 until s.k if s.clusterScope(c, from) > 0; to <- 0 until s.k if to != from) {
      val t = s.copyState()
      t.moveCluster(c, from, to)
      val (a, b) = (t.load(from), t.load(to))
      val m = math.max(a, b)
      if ((m == 0 || math.abs(a - b) / m < s.delta) && (best.isEmpty || t.cost < best.get._2))
        best = Some((LocalSearch.Move(c, from, to), t.cost))
    }
    best
  }

  /** `ScopeAtoms.build` by its definition over boxed maps: group vertices
    * by (sorted query set, worker), order by (`sig.mkString(",")`, worker).
    */
  def scopeAtoms(scopes: Map[Int, Set[Int]], assign: Int => Int): Vector[Atom] = {
    val sigOf = scala.collection.mutable.HashMap.empty[Int, Vector[Int]]
    for ((qid, scope) <- scopes.toSeq.sortBy(_._1); v <- scope) sigOf(v) = sigOf.getOrElse(v, Vector.empty) :+ qid
    sigOf.toVector.groupBy { case (v, sig) => (sig, assign(v)) }.toVector
      .sortBy { case ((sig, w), _) => (sig.mkString(","), w) }
      .map { case ((sig, w), vs) => Atom(sig, w, vs.map(_._1).sorted.toArray) }
  }

  /** Local query scope size |LS(q, w)| from atoms. */
  def localScopeSize(atoms: Seq[Atom], qid: Int, worker: Int): Long =
    atoms.iterator.filter(a => a.worker == worker && a.sig.contains(qid)).map(_.size.toLong).sum

  /** The paper's intersection function I_w(S): number of vertices on worker
    * `w` shared by every query in `S` (Section 3.4's example:
    * I_w({q1,q2,q3}) = 3 when the three queries share three vertices on w).
    */
  def intersection(atoms: Seq[Atom], worker: Int, qset: Set[Int]): Long =
    atoms.iterator
      .filter(a => a.worker == worker && qset.subsetOf(a.sig.toSet))
      .map(_.size.toLong).sum

  /** `Perturbation.run` as written before its primitive loops: the spread
    * clusters and the merge target by `filter` and `maxBy`, the merge and the
    * repair by `moveCluster`.
    */
  def perturbation(s: QCutState, rng: Random): Boolean = {
    val spread = (0 until s.nClusters).filter { c =>
      (0 until s.k).count(w => s.clusterScope(c, w) > 0) >= 2
    }
    if (spread.isEmpty) return false
    val c = spread(rng.nextInt(spread.length))
    val target = (0 until s.k).maxBy(w => (s.clusterScope(c, w), -w))
    for (w <- 0 until s.k if w != target && s.clusterScope(c, w) > 0)
      s.moveCluster(c, w, target)
    rebalance(s, rng)
    true
  }

  /** `Perturbation.rebalance` as written before its primitive loops: the
    * extreme workers by `maxBy`/`minBy`, the movable clusters re-filtered on
    * every move. Returns the number of moves made (at most 1000).
    */
  def rebalance(s: QCutState, rng: Random, preferSmall: Boolean = false): Int = {
    val maxMoves = 1000
    var moves = 0
    var made = 0
    while (!s.globallyBalanced && moves < maxMoves) {
      val wMax = (0 until s.k).maxBy(w => (s.load(w), -w))
      val wMin = (0 until s.k).minBy(w => (s.load(w), w))
      val movable = (0 until s.nClusters).filter(cc => s.clusterScope(cc, wMax) > 0)
      if (movable.isEmpty) moves = maxMoves
      else {
        val cc =
          if (preferSmall) movable.minBy(c => (s.clusterScope(c, wMax), c))
          else movable(rng.nextInt(movable.length))
        s.moveCluster(cc, wMax, wMin)
        moves += 1
        made += 1
      }
    }
    made
  }

  /** One (qid, iter) row of batch stats as boxed maps.
    *
    * @param actByWorker active vertices per computing worker, |LS(q, w)|
    * @param remoteMsgs  cross-worker message counts, keyed by (srcWorker,
    *                    dstWorker), srcWorker != dstWorker
    */
  final case class IterStat(qid: Int, iter: Int, actByWorker: Map[Int, Int], remoteMsgs: Map[(Int, Int), Int]) {
    /** The row as a `BatchStats` shows it: the per-pair message counts
      * become the number of pairs and the number of messages.
      */
    def shown: (Int, Int, Map[Int, Int], Int, Int) = (qid, iter, actByWorker, remoteMsgs.size, remoteMsgs.values.sum)
  }

  /** The rows of `s`, sorted by (qid, iter), in the form of [[IterStat.shown]]. */
  def shown(s: BatchStats): Vector[(Int, Int, Map[Int, Int], Int, Int)] =
    (0 until s.queries).toVector.flatMap(i => s.queryRows(i).map { r =>
      (s.queryId(i), s.iter(r), (0 until s.width).filter(s.active(r, _) > 0).map(w => w -> s.active(r, w)).toMap,
        s.remotePairs(r), s.remoteMsgs(r))
    })

  /** `IterationStats.compute` as boxed per-(qid, iter) hash maps, sorted by
    * (qid, iter); every (qid, iter) with at least one activation appears
    * exactly once.
    */
  def iterationStats(trace: BatchTrace, assign: Int => Int): Vector[IterStat] = {
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
      IterStat(qid, iter,
        act((qid, iter)).toMap,
        remote.getOrElse((qid, iter), mutable.HashMap.empty).toMap)
    }
  }

  /** The paper's query-cut metric (Section 2): the number of non-empty local
    * query scopes, summed over queries. Lower is better; |Q| is perfect.
    */
  def queryCut(trace: BatchTrace, assign: Int => Int): Int =
    trace.queries.iterator.map { q =>
      trace.globalScope(q.qid).map(assign).size
    }.sum

  /** The Q-cut ILS cost function (Section 3.2.2) evaluated directly on a
    * trace: for every query, the number of scope vertices not assigned to
    * the query's largest-scope worker.
    */
  def qcutCost(trace: BatchTrace, assign: Int => Int): Long =
    trace.queries.iterator.map { q =>
      val byWorker = trace.globalScope(q.qid).groupBy(assign).map { case (_, vs) => vs.size.toLong }
      if (byWorker.isEmpty) 0L else byWorker.sum - byWorker.max
    }.sum

  /** `LatencySimulator.simulateBatch` as it was written before its kernel
    * moved to flat arrays: one boxed `IterCost` per row, k-length work
    * vectors swept with closures, the computing queries re-filtered every
    * step. Every (job, worker) gets the same floating-point operations, so
    * the two agree bit for bit.
    */
  def simulateBatch(stats: BatchStats, k: Int, mode: BarrierMode, c: CostModel): BatchSim =
    Simulator.simulateBatch(stats, k, mode, c)

  private object Simulator {
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
}
