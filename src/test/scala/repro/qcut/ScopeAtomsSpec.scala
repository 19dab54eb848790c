package repro.qcut

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.sim.IterationStats

class ScopeAtomsSpec extends SparkSpec {

  private val scopes = Map(
    1 -> Set(1, 2, 3),
    2 -> Set(3, 4))
  private val assign: Int => Int = v => if (v <= 2) 0 else 1

  test("build groups vertices by (signature, worker)") {
    val atoms = ScopeAtoms.build(scopes, assign)
    val asTuples = atoms.map(a => (a.sig, a.worker, a.vids.toSet)).toSet
    assert(asTuples === Set(
      (Vector(1), 0, Set(1, 2)),
      (Vector(1, 2), 1, Set(3)),
      (Vector(2), 1, Set(4))))
  }

  test("atoms partition the union of scopes") {
    val atoms = ScopeAtoms.build(scopes, assign)
    val all = atoms.flatMap(_.vids)
    assert(all.size === all.distinct.size, "atoms must be disjoint")
    assert(all.toSet === scopes.values.flatten.toSet)
  }

  test("localScopeSize matches the direct definition") {
    val atoms = ScopeAtoms.build(scopes, assign)
    for ((qid, scope) <- scopes; w <- 0 to 1) {
      val direct = scope.count(assign(_) == w).toLong
      assert(Oracle.localScopeSize(atoms, qid, w) === direct, s"LS($qid, $w)")
    }
  }

  test("intersection function I_w matches the paper's example semantics") {
    val atoms = ScopeAtoms.build(scopes, assign)
    assert(Oracle.intersection(atoms, 1, Set(1, 2)) === 1L) // vertex 3
    assert(Oracle.intersection(atoms, 0, Set(1, 2)) === 0L)
    assert(Oracle.intersection(atoms, 1, Set(2)) === 2L) // vertices 3, 4
    assert(Oracle.intersection(atoms, 0, Set(1)) === 2L)
  }

  test("globalScopeArrays of each small fixture batch are sorted, distinct and equal globalScope") {
    for (t <- TestFixtures.smallSsspTraces ++ TestFixtures.smallPoiTraces) {
      val arrays = t.globalScopeArrays
      assert(arrays.keySet === t.queries.map(_.qid).toSet, s"batch ${t.batchId}")
      for ((q, scope) <- arrays) {
        assert(scope.indices.drop(1).forall(j => scope(j - 1) < scope(j)), s"batch ${t.batchId} query $q")
        assert(scope.toSet === t.globalScope(q), s"batch ${t.batchId} query $q")
      }
    }
  }

  test("fromArrays rejects a scope that is not sorted and distinct") {
    intercept[IllegalArgumentException](ScopeAtoms.fromArrays(Map(1 -> Array(2, 1)), assign))
    intercept[IllegalArgumentException](ScopeAtoms.fromArrays(Map(1 -> Array(1, 1)), assign))
    intercept[IllegalArgumentException](ScopeAtoms.fromArrays(Map(1 -> Array(-1, 1)), assign))
  }

  test("an atom rejects an unsorted or empty signature") {
    intercept[IllegalArgumentException](Atom(Vector(2, 1), 0, Array(1)))
    intercept[IllegalArgumentException](Atom(Vector.empty, 0, Array(1)))
  }

  test("Spark-side atom aggregation agrees with the driver-side build") {
    val trace = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val hash = repro.partition.HashPartitioner.assign(g, 4)
    val scopesReal: Map[Int, Set[Int]] =
      trace.queries.map(q => q.qid -> trace.globalScope(q.qid)).toMap
    val driverAtoms = ScopeAtoms.build(scopesReal, hash(_))

    val adf = Oracle.activationsDf(spark, trace)
    val sdf = Oracle.assignmentDf(spark, hash)
    val sparkAtoms = Oracle.atomsDf(adf, sdf).collect().map { r =>
      (r.getSeq[Int](0).toVector, r.getInt(1), r.getLong(2))
    }.toSet
    val expected = driverAtoms.map(a => (a.sig, a.worker, a.size.toLong)).toSet
    assert(sparkAtoms === expected)
  }

  test("oracle: Spark local scope sizes match DuckDB aggregation") {
    val trace = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val adf = Oracle.activationsDf(spark, trace)
    val sdf = Oracle.assignmentDf(spark, repro.partition.HashPartitioner.assign(g, 4))
    val ls = Oracle.localScopesDf(adf, sdf)
    Oracle.assertEquivalent(
      ls,
      """SELECT CAST(a.qid AS BIGINT) AS qid, CAST(s.worker AS BIGINT) AS worker,
        |       COUNT(DISTINCT a.vid) AS scope_size
        |FROM activations a JOIN assignment s ON a.vid = s.vid
        |GROUP BY a.qid, s.worker""".stripMargin,
      "activations" -> adf.select("qid", "vid"),
      "assignment" -> sdf)
  }

  test("driver stats equal the Spark local scopes on a real trace") {
    val trace = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val hash = repro.partition.HashPartitioner.assign(g, 4)
    val stats = IterationStats.compute(trace, hash(_))
    // Scope size = distinct active vertices per (query, worker) over all iterations.
    val fromStats = scala.collection.mutable.HashMap.empty[(Int, Int), Set[Int]]
    for (a <- trace.activations) {
      val key = (a.qid, hash(a.vid))
      fromStats(key) = fromStats.getOrElse(key, Set.empty) + a.vid
    }
    val adf = Oracle.activationsDf(spark, trace)
    val sdf = Oracle.assignmentDf(spark, hash)
    val sparkLs = Oracle.localScopesDf(adf, sdf).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2)).toMap
    assert(sparkLs === fromStats.map { case (k, s) => k -> s.size.toLong }.toMap)
    // And per-iteration activation counts must sum consistently.
    val sumStats = (0 until stats.size).map(r => (0 until stats.width).map(stats.active(r, _)).sum).sum
    assert(sumStats === trace.activations.size)
  }
}
