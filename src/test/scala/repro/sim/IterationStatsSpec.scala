package repro.sim

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.engine._

class IterationStatsSpec extends SparkSpec {

  private val queries = Vector(Query(0, QueryKind.Sssp, 0, 3, 0, 0))
  private val trace = BatchTrace(
    batchId = 0,
    queries = queries,
    iterations = 2,
    activations = Vector(ActRec(0, 0, 0), ActRec(0, 1, 1), ActRec(0, 1, 2), ActRec(0, 2, 3)),
    messages = Vector(MsgRec(0, 0, 0, 1), MsgRec(0, 0, 0, 2), MsgRec(0, 1, 1, 3), MsgRec(0, 1, 2, 3)),
    results = Map(0 -> QueryResult(0, found = true, 2.0, 3, 2)),
    finalDistances = Map(0 -> Map(0 -> 0.0)))

  test("activation counts per worker") {
    // vertices 0,1 -> w0; 2,3 -> w1
    val assign: Int => Int = v => if (v <= 1) 0 else 1
    val stats = IterationStats.compute(trace, assign)
    assert(stats.map(s => (s.qid, s.iter)) === Vector((0, 0), (0, 1), (0, 2)))
    assert(stats(0).actByWorker === Map(0 -> 1))
    assert(stats(1).actByWorker === Map(0 -> 1, 1 -> 1))
    assert(stats(2).actByWorker === Map(1 -> 1))
  }

  /** Messages of `trace` whose endpoints lie on different workers. */
  private def crossing(assign: Int => Int): Int =
    trace.messages.count(m => assign(m.src) != assign(m.dst))

  test("remote and local message counts") {
    val assign: Int => Int = v => if (v <= 1) 0 else 1
    val stats = IterationStats.compute(trace, assign)
    assert(stats(0).remoteMsgs === Map((0, 1) -> 1)) // 0->2 crosses, 0->1 stays
    assert(stats(1).remoteMsgs === Map((0, 1) -> 1)) // 1->3 crosses, 2->3 stays
    assert(stats(2).remoteMsgs === Map.empty[(Int, Int), Int])
    assert(stats.map(_.totalRemote).sum === crossing(assign))
  }

  test("involved workers include message receivers") {
    val assign: Int => Int = v => if (v <= 1) 0 else 1
    val stats = IterationStats.compute(trace, assign)
    assert(stats(0).involvedWorkers === Set(0, 1))
    assert(stats(2).involvedWorkers === Set(1))
  }

  test("isLocal only when one worker computes and no message crosses") {
    val allOne: Int => Int = _ => 0
    val statsLocal = IterationStats.compute(trace, allOne)
    assert(statsLocal.forall(_.isLocal))
    val split: Int => Int = v => if (v <= 1) 0 else 1
    val stats = IterationStats.compute(trace, split)
    assert(stats.map(_.isLocal) === Vector(false, false, true))
  }

  test("a single-worker assignment yields zero remote messages") {
    val stats = IterationStats.compute(trace, _ => 0)
    assert(stats.forall(_.remoteMsgs.isEmpty))
    assert(stats.map(_.totalRemote).sum === 0)
  }

  test("totals are conserved under any assignment") {
    for (mod <- 1 to 4) {
      val assign: Int => Int = v => v % mod
      val stats = IterationStats.compute(trace, assign)
      assert(stats.map(_.totalActive).sum === trace.activations.size)
      assert(stats.map(_.totalRemote).sum === crossing(assign))
    }
  }

  test("byQuery groups and orders iterations") {
    val assign: Int => Int = _ % 2
    val stats = IterationStats.compute(trace, assign)
    val grouped = IterationStats.byQuery(stats)
    assert(grouped.keySet === Set(0))
    assert(grouped(0).map(_.iter) === Vector(0, 1, 2))
  }

  test("oracle: per-(query, iteration, worker) activation counts match DuckDB") {
    import spark.implicits._
    val real = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val hash = repro.partition.HashPartitioner.assign(g, 4)
    val stats = IterationStats.compute(real, hash(_))
    val statsDf = spark.createDataset(
      stats.flatMap(s => s.actByWorker.map { case (w, n) => (s.qid, s.iter, w, n.toLong) })
    ).toDF("qid", "iter", "worker", "n")
    val adf = Oracle.activationsDf(spark, real)
    val sdf = Oracle.assignmentDf(spark, hash)
    Oracle.assertEquivalent(
      statsDf,
      """SELECT CAST(a.qid AS BIGINT) AS qid, CAST(a.iter AS BIGINT) AS iter,
        |       CAST(s.worker AS BIGINT) AS worker, COUNT(*) AS n
        |FROM activations a JOIN assignment s ON a.vid = s.vid
        |GROUP BY a.qid, a.iter, s.worker""".stripMargin,
      "activations" -> adf,
      "assignment" -> sdf)
  }

  test("oracle: remote message matrix matches DuckDB") {
    import spark.implicits._
    val real = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val hash = repro.partition.HashPartitioner.assign(g, 4)
    val stats = IterationStats.compute(real, hash(_))
    val remoteDf = spark.createDataset(
      stats.flatMap(s => s.remoteMsgs.map { case ((a, b), n) => (s.qid, s.iter, a, b, n.toLong) })
    ).toDF("qid", "iter", "wsrc", "wdst", "n")
    val mdf = Oracle.messagesDf(spark, real)
    val sdf = Oracle.assignmentDf(spark, hash)
    Oracle.assertEquivalent(
      remoteDf,
      """SELECT CAST(m.qid AS BIGINT) AS qid, CAST(m.iter AS BIGINT) AS iter,
        |       CAST(ss.worker AS BIGINT) AS wsrc, CAST(sd.worker AS BIGINT) AS wdst,
        |       COUNT(*) AS n
        |FROM messages m
        |JOIN assignment ss ON m.src = ss.vid
        |JOIN assignment sd ON m.dst = sd.vid
        |WHERE ss.worker <> sd.worker
        |GROUP BY m.qid, m.iter, ss.worker, sd.worker""".stripMargin,
      "messages" -> mdf,
      "assignment" -> sdf)
  }
}
