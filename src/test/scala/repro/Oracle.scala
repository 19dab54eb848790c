package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.engine.BatchTrace
import repro.graph.RoadNetwork
import repro.qcut.{Atom, LocalSearch, QCutState}

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
  * Q-cut definitions the incremental search must agree with, and the
  * paper's query-cut metric and ILS cost evaluated directly on a trace.
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

  /** `QCutState.clusterAtomsOn` by its definition: every atom on `from`
    * whose signature holds a query of cluster `c`, ascending.
    */
  def clusterAtomsOn(s: QCutState, c: Int, from: Int): Vector[Int] =
    s.atoms.indices.filter { i =>
      s.assign(i) == from && s.atoms(i).sig.exists(q => s.clusterOfQuery(s.queryIds.indexOf(q)) == c)
    }.toVector

  /** `LocalSearch.bestSuccessor` by brute force: apply every balanced
    * successor, compute the full cost, undo it; the first cheapest wins.
    */
  def bestSuccessor(s: QCutState): Option[(LocalSearch.Move, Long)] = {
    var best: Option[(LocalSearch.Move, Long)] = None
    for (c <- 0 until s.nClusters; from <- 0 until s.k if s.clusterScope(c, from) > 0) {
      val idxs = clusterAtomsOn(s, c, from)
      for (to <- 0 until s.k if to != from && s.moveKeepsPairBalanced(idxs, to)) {
        s.moveAtoms(idxs, to)
        val cost = s.cost
        s.moveAtoms(idxs, from)
        if (best.isEmpty || cost < best.get._2) best = Some((LocalSearch.Move(c, from, to), cost))
      }
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
}
