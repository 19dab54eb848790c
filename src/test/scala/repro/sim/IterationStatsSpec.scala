package repro.sim

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Oracle, SparkSpec, TestFixtures}
import repro.engine._

class IterationStatsSpec extends SparkSpec {

  private val queries = Vector(Query(0, QueryKind.Sssp, 0, 3, 0, 0))
  private val trace = TestFixtures.trace(
    activations = Vector(ActRec(0, 0, 0), ActRec(0, 1, 1), ActRec(0, 1, 2), ActRec(0, 2, 3)),
    messages = Vector(MsgRec(0, 0, 0, 1), MsgRec(0, 0, 0, 2), MsgRec(0, 1, 1, 3), MsgRec(0, 1, 2, 3)),
    queries = queries,
    iterations = 2)

  /** The workers of a mask. */
  private def workers(mask: Long): Set[Int] = (0 until BatchStats.MaxWorkers).filter(w => (mask >>> w & 1L) == 1L).toSet
  private def rows(s: BatchStats): Vector[Int] = (0 until s.size).toVector

  test("activation counts per worker") {
    // vertices 0,1 -> w0; 2,3 -> w1
    val assign: Int => Int = v => if (v <= 1) 0 else 1
    val stats = Oracle.shown(IterationStats.compute(trace, assign))
    assert(stats.map(s => (s._1, s._2)) === Vector((0, 0), (0, 1), (0, 2)))
    assert(stats(0)._3 === Map(0 -> 1))
    assert(stats(1)._3 === Map(0 -> 1, 1 -> 1))
    assert(stats(2)._3 === Map(1 -> 1))
  }

  /** Messages of `trace` whose endpoints lie on different workers. */
  private def crossing(assign: Int => Int): Int =
    trace.messages.count(m => assign(m.src) != assign(m.dst))

  test("remote and local message counts") {
    val assign: Int => Int = v => if (v <= 1) 0 else 1
    val stats = IterationStats.compute(trace, assign)
    // Row 0: 0->2 crosses, 0->1 stays; row 1: 1->3 crosses, 2->3 stays.
    assert(rows(stats).map(r => (stats.remotePairs(r), stats.remoteMsgs(r))) === Vector((1, 1), (1, 1), (0, 0)))
    assert(rows(stats).map(stats.remoteMsgs).sum === crossing(assign))
  }

  test("involved workers include message receivers") {
    val assign: Int => Int = v => if (v <= 1) 0 else 1
    val stats = IterationStats.compute(trace, assign)
    assert(workers(stats.involved(0)) === Set(0, 1))
    assert(workers(stats.involved(2)) === Set(1))
  }

  test("isLocal only when one worker computes and no message crosses") {
    val allOne: Int => Int = _ => 0
    val statsLocal = IterationStats.compute(trace, allOne)
    assert(rows(statsLocal).forall(statsLocal.isLocal))
    val split: Int => Int = v => if (v <= 1) 0 else 1
    val stats = IterationStats.compute(trace, split)
    assert(rows(stats).map(stats.isLocal) === Vector(false, false, true))
  }

  test("a single-worker assignment yields zero remote messages") {
    val stats = IterationStats.compute(trace, _ => 0)
    assert(rows(stats).forall(stats.remotePairs(_) == 0))
    assert(rows(stats).map(stats.remoteMsgs).sum === 0)
  }

  test("totals are conserved under any assignment") {
    for (mod <- 1 to 4) {
      val assign: Int => Int = v => v % mod
      val stats = IterationStats.compute(trace, assign)
      assert(rows(stats).map(r => (0 until stats.width).map(stats.active(r, _)).sum).sum === trace.activations.size)
      assert(rows(stats).map(stats.remoteMsgs).sum === crossing(assign))
    }
  }

  test("per-query row ranges group and order iterations") {
    val assign: Int => Int = _ % 2
    val stats = IterationStats.compute(trace, assign)
    assert((0 until stats.queries).map(stats.queryId) === Vector(0))
    assert(stats.queryRows(0).map(stats.iter) === Vector(0, 1, 2))
  }

  test("stats from hand-written rows hold exactly those rows") {
    val recs = Vector(
      Oracle.IterStat(3, 0, Map(0 -> 2), Map.empty),
      Oracle.IterStat(3, 2, Map(1 -> 1, 4 -> 3), Map((1, 4) -> 2, (4, 0) -> 1)),
      Oracle.IterStat(5, 1, Map(2 -> 1), Map((2, 1) -> 1)))
    assert(Oracle.shown(TestFixtures.stats(recs.reverse)) === recs.map(_.shown))
  }

  test("an assignment beyond the 64-worker limit fails") {
    val e = intercept[IllegalArgumentException](IterationStats.compute(trace, _ => 64))
    assert(e.getMessage.contains("at most 64 workers"), e.getMessage)
  }

  private def check(prop: Prop, minTests: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minTests), prop)
    assert(res.passed, res.status.toString)
  }

  /** A random trace over 30 vertices and an assignment onto k workers. Its
    * qids start anywhere and have gaps, each query's iterations have gaps,
    * both columns are shuffled out of (qid, iter) order, most messages fall
    * on an activation's (qid, iter), many with the same worker pair, and the
    * rest on any (qid, iter), often one without activation.
    */
  private val genReplay: Gen[(Int, BatchTrace, Array[Int])] = for {
    k <- Gen.choose(1, 16)
    q0 <- Gen.choose(0, 300)
    qids <- Gen.someOf(q0 to q0 + 6)
    acts <- Gen.sequence[List[List[ActRec]], List[ActRec]](qids.map { q =>
      Gen.someOf(0 to 6).flatMap(iters => Gen.sequence[List[List[ActRec]], List[ActRec]](iters.map { it =>
        Gen.nonEmptyListOf(Gen.choose(0, 29)).map(_.map(ActRec(q, it, _)))
      }).map(_.flatten))
    }).map(_.flatten)
    anywhere = Gen.zip(Gen.choose(q0 - 1, q0 + 7), Gen.choose(0, 7))
    onActivation = if (acts.isEmpty) anywhere else Gen.oneOf(acts).map(a => (a.qid, a.iter))
    nMsgs <- Gen.choose(0, 200)
    msgs <- Gen.listOfN(nMsgs, for {
      (q, it) <- Gen.frequency(3 -> onActivation, 1 -> anywhere)
      src <- Gen.choose(0, 29); dst <- Gen.choose(0, 29)
    } yield MsgRec(q, it, src, dst))
    assign <- Gen.listOfN(30, Gen.choose(0, k - 1))
    seed <- Gen.long
  } yield {
    val rnd = new scala.util.Random(seed)
    (k, TestFixtures.trace(rnd.shuffle(acts), rnd.shuffle(msgs)), assign.toArray)
  }

  test("property: compute equals the boxed hash-map computation of the oracle") {
    def mask(ws: Iterable[Int]): Long = ws.foldLeft(0L)((m, w) => m | 1L << w)
    check(Prop.forAllNoShrink(genReplay) { case (k, t, assign) =>
      val stats = IterationStats.compute(t, assign(_))
      val expected = Oracle.iterationStats(t, assign(_))
      stats.width <= k && Oracle.shown(stats) == expected.map(_.shown) && expected.indices.forall { r =>
        val e = expected(r)
        stats.computing(r) == mask(e.actByWorker.keys) &&
          stats.involved(r) == mask(e.actByWorker.keys ++ e.remoteMsgs.keys.flatMap { case (a, b) => Seq(a, b) })
      }
    }, minTests = 300)
  }

  test("oracle: per-(query, iteration, worker) activation counts match DuckDB") {
    import spark.implicits._
    val real = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val hash = repro.partition.HashPartitioner.assign(g, 4)
    val stats = IterationStats.compute(real, hash(_))
    val statsDf = spark.createDataset(
      Oracle.shown(stats).flatMap { case (q, it, acts, _, _) => acts.map { case (w, n) => (q, it, w, n.toLong) } }
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

  test("oracle: remote pairs and messages per (query, iter) match DuckDB") {
    import spark.implicits._
    val real = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val hash = repro.partition.HashPartitioner.assign(g, 4)
    val stats = IterationStats.compute(real, hash(_))
    val remoteDf = spark.createDataset(
      Oracle.shown(stats).collect { case (q, it, _, pairs, n) if n > 0 => (q, it, pairs.toLong, n.toLong) }
    ).toDF("qid", "iter", "pairs", "n")
    val mdf = Oracle.messagesDf(spark, real)
    val sdf = Oracle.assignmentDf(spark, hash)
    Oracle.assertEquivalent(
      remoteDf,
      """SELECT CAST(m.qid AS BIGINT) AS qid, CAST(m.iter AS BIGINT) AS iter,
        |       COUNT(DISTINCT ss.worker || '>' || sd.worker) AS pairs, COUNT(*) AS n
        |FROM messages m
        |JOIN assignment ss ON m.src = ss.vid
        |JOIN assignment sd ON m.dst = sd.vid
        |WHERE ss.worker <> sd.worker
        |GROUP BY m.qid, m.iter""".stripMargin,
      "messages" -> mdf,
      "assignment" -> sdf)
  }
}
