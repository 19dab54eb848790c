package repro.engine

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.graph.Dijkstra

class BspEngineSpec extends SparkSpec {
  import TestFixtures._

  private def penta = pentaEdgesDf
  private def noTag: Int => Boolean = _ => false

  private def singleSssp(start: Int, end: Int, pruned: Boolean = true): BatchTrace =
    BspEngine.runBatch(spark, penta, noTag,
      Seq(Query(0, QueryKind.Sssp, start, end, city = 0, batch = 0)), maxIter = 50, pruned = pruned)

  test("SSSP on the hand-built graph finds the exact distance") {
    val t = singleSssp(0, 3)
    assert(t.results(0).found)
    assert(t.results(0).dist === 6.0)
  }

  test("unpruned SSSP settles the whole reachable component exactly") {
    val t = singleSssp(0, 3, pruned = false)
    assert(t.finalDistances(0) === Map(0 -> 0.0, 1 -> 1.0, 2 -> 3.0, 3 -> 6.0, 4 -> 7.0))
  }

  test("oracle: unpruned SSSP distances match a DuckDB recursive-CTE shortest path") {
    import spark.implicits._
    val t = singleSssp(0, 3, pruned = false)
    val distDf = spark.createDataset(t.finalDistances(0).toSeq).toDF("vid", "dist")
    Oracle.assertEquivalent(
      distDf,
      """WITH RECURSIVE walk(v, d, depth) AS (
        |  SELECT 0, CAST(0.0 AS DOUBLE), 0
        |  UNION ALL
        |  SELECT CAST(e.dst AS INT), w.d + CAST(e.weight AS DOUBLE), w.depth + 1
        |  FROM walk w JOIN edges e ON CAST(e.src AS INT) = w.v
        |  WHERE w.depth < 6
        |)
        |SELECT v AS vid, MIN(d) AS dist FROM walk GROUP BY v""".stripMargin,
      "edges" -> penta)
  }

  test("pruned SSSP is exact on all vertices closer than the answer") {
    val t = singleSssp(0, 3)
    val exact = Map(0 -> 0.0, 1 -> 1.0, 2 -> 3.0, 3 -> 6.0)
    exact.foreach { case (v, d) => assert(t.finalDistances(0)(v) === d) }
  }

  test("pruned SSSP never sends a message that cannot improve the answer") {
    val t = singleSssp(0, 3)
    // Bound after convergence is d(end) = 6; vertex 4 (true distance 7) must
    // not have been settled to its final value.
    assert(!t.finalDistances(0).get(4).contains(7.0))
  }

  test("degenerate SSSP with start == end terminates immediately") {
    val t = BspEngine.runBatch(spark, penta, noTag,
      Seq(Query(0, QueryKind.Sssp, 2, 2, 0, 0)), maxIter = 10)
    assert(t.results(0).found && t.results(0).dist === 0.0)
    assert(t.iterations === 0)
  }

  test("POI finds the nearest tagged vertex") {
    val t = BspEngine.runBatch(spark, penta, _ == 4,
      Seq(Query(0, QueryKind.Poi, 0, -1, 0, 0)), maxIter = 50)
    assert(t.results(0).found)
    assert(t.results(0).target === 4)
    assert(t.results(0).dist === 7.0)
  }

  test("POI on a tagged start vertex answers itself at distance 0") {
    val t = BspEngine.runBatch(spark, penta, _ == 0,
      Seq(Query(0, QueryKind.Poi, 0, -1, 0, 0)), maxIter = 10)
    assert(t.results(0).target === 0 && t.results(0).dist === 0.0)
    assert(t.iterations === 0)
  }

  test("POI with no reachable tagged vertex reports not found") {
    val t = BspEngine.runBatch(spark, penta, _ => false,
      Seq(Query(0, QueryKind.Poi, 0, -1, 0, 0)), maxIter = 50, pruned = false)
    assert(!t.results(0).found)
  }

  test("activations start with the start vertex at iteration 0") {
    val t = singleSssp(0, 3)
    assert(t.activations.filter(_.iter == 0) === Vector(ActRec(0, 0, 0)))
  }

  test("activation semantics: active at i+1 iff a message arrived at i") {
    val t = singleSssp(0, 3)
    val maxIter = t.activations.map(_.iter).max
    for (i <- 0 until maxIter) {
      val msgTargets = t.messages.filter(_.iter == i).map(m => (m.qid, m.dst)).toSet
      val active = t.activations.filter(_.iter == i + 1).map(a => (a.qid, a.vid)).toSet
      assert(active === msgTargets, s"iteration ${i + 1}")
    }
  }

  test("messages only travel along graph edges") {
    val edgeSet = pentaEdges.map { case (s, d, _) => (s, d) }.toSet
    val t = singleSssp(0, 3)
    t.messages.foreach(m => assert(edgeSet.contains((m.src, m.dst))))
  }

  test("messages are only sent by vertices active in the same iteration") {
    val t = singleSssp(0, 3)
    for (i <- 0 to t.messages.map(_.iter).max) {
      val active = t.activations.filter(_.iter == i).map(_.vid).toSet
      t.messages.filter(_.iter == i).foreach(m => assert(active.contains(m.src)))
    }
  }

  test("multi-query batch results equal single-query runs (write isolation)") {
    val queries = Seq(
      Query(0, QueryKind.Sssp, 0, 3, 0, 0),
      Query(1, QueryKind.Sssp, 1, 4, 0, 0),
      Query(2, QueryKind.Poi, 0, -1, 0, 0))
    val together = BspEngine.runBatch(spark, penta, _ == 4, queries, maxIter = 50)
    for (q <- queries) {
      val alone = BspEngine.runBatch(spark, penta, _ == 4, Seq(q), maxIter = 50)
      assert(together.results(q.qid) === alone.results(q.qid), s"query ${q.qid}")
      assert(together.finalDistances(q.qid) === alone.finalDistances(q.qid), s"query ${q.qid}")
    }
  }

  test("engine is deterministic across runs") {
    val a = singleSssp(0, 4)
    val b = singleSssp(0, 4)
    assert(a.activations === b.activations)
    assert(a.messages === b.messages)
    assert(a.results === b.results)
  }

  test("trace never references unknown queries") {
    val t = smallSsspTraces.head
    val qids = t.queries.map(_.qid).toSet
    assert(t.activations.forall(a => qids.contains(a.qid)))
    assert(t.messages.forall(m => qids.contains(m.qid)))
  }

  test("grid SSSP matches Dijkstra on every query of the small workload") {
    val adj = small.adjacency
    for (t <- smallSsspTraces; q <- t.queries) {
      val expected = Dijkstra.shortestPath(adj, q.start, q.end)
      val r = t.results(q.qid)
      assert(r.found === expected.isDefined, s"query ${q.qid}")
      expected.foreach(d => assert(math.abs(r.dist - d) < 1e-9, s"query ${q.qid}: ${r.dist} vs $d"))
    }
  }

  test("grid POI matches Dijkstra.nearestTagged on every query") {
    val adj = small.adjacency
    for (t <- smallPoiTraces; q <- t.queries) {
      val expected = Dijkstra.nearestTagged(adj, q.start, small.isTagged)
      val r = t.results(q.qid)
      assert(r.found === expected.isDefined, s"query ${q.qid}")
      expected.foreach { case (v, d) =>
        assert(math.abs(r.dist - d) < 1e-9, s"query ${q.qid} dist")
        // Ties on distance are broken by vid in both implementations.
        assert(r.target === v, s"query ${q.qid} target")
      }
    }
  }

  test("pruned query scopes are localized (far smaller than the graph)") {
    val scopeSizes = for (t <- smallSsspTraces; q <- t.queries) yield t.globalScope(q.qid).size
    assert(scopeSizes.max < small.numVertices / 2,
      s"largest scope ${scopeSizes.max} of ${small.numVertices} vertices is not localized")
  }

  test("queries of the same city overlap (clustered workload)") {
    val t = smallSsspTraces.head
    val byCity = t.queries.groupBy(_.city).filter(_._2.size >= 2)
    assume(byCity.nonEmpty, "need a city with two queries in the first batch")
    val anyOverlap = byCity.values.exists { qs =>
      qs.combinations(2).exists {
        case Seq(a, b) => t.globalScope(a.qid).intersect(t.globalScope(b.qid)).nonEmpty
        case _         => false
      }
    }
    assert(anyOverlap, "expected overlapping scopes for same-city queries")
  }

  test("full-graph (unpruned) execution activates orders of magnitude more than pruned") {
    val q = smallSsspQueries.head.copy(qid = 999, batch = 0)
    val pruned = BspEngine.runBatch(spark, smallEdges, small.isTagged, Seq(q), maxIter = 800,
      astarSide = Some(small.side))
    val full = BspEngine.runBatch(spark, smallEdges, small.isTagged, Seq(q), maxIter = 800, pruned = false)
    assert(full.activations.size > 5 * pruned.activations.size,
      s"full ${full.activations.size} vs pruned ${pruned.activations.size}")
    // Both agree on the answer.
    assert(math.abs(full.results(999).dist - pruned.results(999).dist) < 1e-9)
  }

  test("runWorkload splits queries into their batches") {
    assert(smallSsspTraces.map(_.batchId) === smallSsspTraces.map(_.batchId).sorted)
    assert(smallSsspTraces.map(_.queries.size).sum === smallSsspQueries.size)
    smallSsspTraces.foreach(t => t.queries.foreach(q => assert(q.batch === t.batchId)))
  }

  test("runWorkload returns batches in order, each equal to runBatch on that batch alone") {
    for ((queries, traces) <- Seq(smallSsspQueries -> smallSsspTraces, smallPoiQueries -> smallPoiTraces)) {
      assert(traces.map(_.batchId) === queries.map(_.batch).distinct.sorted)
      for (t <- traces) {
        val alone = BspEngine.runBatch(spark, smallEdges, small.isTagged, queries.filter(_.batch == t.batchId),
          maxIter = 400, astarSide = Some(small.side))
        assert(alone === t, s"batch ${t.batchId}")
      }
    }
  }

  test("a batch's trace does not depend on the order in which the batch lists its queries") {
    for (queries <- Seq(smallSsspQueries, smallPoiQueries)) {
      def run(qs: Seq[Query]) =
        BspEngine.runBatch(spark, smallEdges, small.isTagged, qs, maxIter = 400, astarSide = Some(small.side))
      val batch = queries.filter(_.batch == 0).sortBy(_.qid)
      val sorted = run(batch)
      for (listed <- Seq(batch.reverse, new scala.util.Random(3).shuffle(batch))) {
        val t = run(listed)
        val order = listed.map(_.qid).mkString(",")
        assert(t.activations === sorted.activations, s"activations, listed as $order")
        assert(t.messages === sorted.messages, s"messages, listed as $order")
        assert(t.results === sorted.results, s"results, listed as $order")
        assert(t == sorted, s"whole trace, listed as $order")
      }
    }
  }

  test("a batch that does not converge within maxIter fails on the driver with IllegalArgumentException") {
    val e = intercept[IllegalArgumentException] {
      BspEngine.runBatch(spark, penta, noTag, Seq(Query(0, QueryKind.Sssp, 0, 3, 0, 0)), maxIter = 1)
    }
    assert(e.getMessage.contains("batch 0 did not converge within 1 iterations"), e.getMessage)
  }

  test("runBatch rejects duplicate qids and empty batches") {
    intercept[IllegalArgumentException] {
      BspEngine.runBatch(spark, penta, noTag,
        Seq(Query(0, QueryKind.Sssp, 0, 3, 0, 0), Query(0, QueryKind.Sssp, 1, 3, 0, 0)))
    }
    intercept[IllegalArgumentException] {
      BspEngine.runBatch(spark, penta, noTag, Seq.empty)
    }
  }
}
