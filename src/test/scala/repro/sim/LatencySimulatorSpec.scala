package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestFixtures}
import repro.sync.BarrierMode

class LatencySimulatorSpec extends AnyFunSuite {

  // Round-number cost model for exact hand computations; the fixed
  // per-(query, iteration, worker) cost is zeroed here and exercised by its
  // dedicated tests below.
  private val c = CostModel(
    tVertex = 1.0, tIterWorker = 0.0, tMsgRemote = 0.1, tFlushPair = 0.5,
    tBarrierBase = 2.0, tBarrierPerWorker = 1.0, tBarrierLocal = 0.25,
    tGlobalStopStart = 10.0, tMovePerVertex = 0.01)

  private def stat(qid: Int, iter: Int, act: Map[Int, Int],
                   remote: Map[(Int, Int), Int] = Map.empty): Oracle.IterStat =
    Oracle.IterStat(qid, iter, act, remote)

  private def simulate(records: Seq[Oracle.IterStat], k: Int, mode: BarrierMode, c: CostModel): BatchSim =
    LatencySimulator.simulateBatch(TestFixtures.stats(records), k, mode, c)

  test("single local query: compute plus local barrier per iteration") {
    val stats = Vector(stat(0, 0, Map(0 -> 2)), stat(0, 1, Map(0 -> 3)))
    val r = simulate(stats, k = 2, BarrierMode.Hybrid, c)
    assert(math.abs(r.latency(0) - (2 + 0.25 + 3 + 0.25)) < 1e-9)
    assert(math.abs(r.makespan - r.latency(0)) < 1e-9)
  }

  test("split iteration: parallel compute, comm cost, limited barrier") {
    val stats = Vector(stat(0, 0, Map(0 -> 2, 1 -> 1), Map((0, 1) -> 3)))
    val r = simulate(stats, k = 2, BarrierMode.Hybrid, c)
    // compute max(2,1)=2; comm 0.5 + 3*0.1 = 0.8; barrier 2 + 2*1 = 4
    assert(math.abs(r.latency(0) - 6.8) < 1e-9)
  }

  test("per-query-global pays the full k-worker barrier even for local queries") {
    val stats = Vector(stat(0, 0, Map(0 -> 2)))
    val hybrid = simulate(stats, k = 8, BarrierMode.Hybrid, c)
    val global = simulate(stats, k = 8, BarrierMode.PerQueryGlobal, c)
    assert(math.abs(hybrid.latency(0) - (2 + 0.25)) < 1e-9)
    assert(math.abs(global.latency(0) - (2 + 2.0 + 8.0)) < 1e-9)
  }

  test("processor sharing: two queries on one worker split its capacity") {
    val stats = Vector(
      stat(0, 0, Map(0 -> 2)),
      stat(1, 0, Map(0 -> 1)))
    val r = simulate(stats, k = 1, BarrierMode.Hybrid, c)
    assert(math.abs(r.latency(1) - (2 + 0.25)) < 1e-9) // 1 unit at rate 1/2
    assert(math.abs(r.latency(0) - (3 + 0.25)) < 1e-9) // rest at full rate
  }

  test("independent workers run queries in parallel without interference") {
    val stats = Vector(
      stat(0, 0, Map(0 -> 5)),
      stat(1, 0, Map(1 -> 5)))
    val r = simulate(stats, k = 2, BarrierMode.Hybrid, c)
    assert(math.abs(r.latency(0) - 5.25) < 1e-9)
    assert(math.abs(r.latency(1) - 5.25) < 1e-9)
  }

  test("shared-global lockstep couples a fast query to a slow one") {
    val stats = Vector(
      stat(0, 0, Map(0 -> 1)), stat(0, 1, Map(0 -> 1)),
      stat(1, 0, Map(1 -> 1)))
    val shared = simulate(stats, k = 2, BarrierMode.SharedGlobal, c)
    val hybrid = simulate(stats, k = 2, BarrierMode.Hybrid, c)
    // Round: ps 1 + barrier (2 + 2) = 5 per round.
    assert(math.abs(shared.latency(1) - 5.0) < 1e-9)
    assert(math.abs(shared.latency(0) - 10.0) < 1e-9)
    assert(hybrid.latency(1) < shared.latency(1))
    assert(hybrid.latency(0) < shared.latency(0))
  }

  test("hybrid never exceeds per-query-global latency") {
    val stats = Vector(
      stat(0, 0, Map(0 -> 3)), stat(0, 1, Map(0 -> 2, 1 -> 1), Map((0, 1) -> 2)),
      stat(1, 0, Map(2 -> 4)), stat(1, 1, Map(2 -> 1)))
    for (k <- Seq(4, 8, 16)) {
      val h = simulate(stats, k, BarrierMode.Hybrid, c)
      val g = simulate(stats, k, BarrierMode.PerQueryGlobal, c)
      h.latency.foreach { case (q, l) => assert(l <= g.latency(q) + 1e-9, s"k=$k q=$q") }
    }
  }

  test("latency grows with remote message volume") {
    def withMsgs(n: Int) = simulate(
      Vector(stat(0, 0, Map(0 -> 1, 1 -> 1), Map((0, 1) -> n))), 2, BarrierMode.Hybrid, c)
    assert(withMsgs(10).latency(0) < withMsgs(100).latency(0))
  }

  test("makespan equals the slowest query in decoupled mode") {
    val stats = Vector(
      stat(0, 0, Map(0 -> 1)),
      stat(1, 0, Map(1 -> 7)))
    val r = simulate(stats, k = 2, BarrierMode.Hybrid, c)
    assert(math.abs(r.makespan - r.latency.values.max) < 1e-9)
  }

  test("sum and average latency helpers") {
    val r = BatchSim(Map(0 -> 2.0, 1 -> 4.0), 4.0)
    assert(r.sumLatency === 6.0)
    assert(r.avgLatency === 3.0)
  }

  private val modes = Seq(BarrierMode.Hybrid, BarrierMode.PerQueryGlobal, BarrierMode.SharedGlobal)

  test("empty stats simulate to an empty batch") {
    for (mode <- modes; k <- Seq(1, 2, 64)) {
      val r = simulate(Vector.empty, k, mode, c)
      assert(r.latency.isEmpty && r.makespan === 0.0, s"$mode k=$k")
    }
  }

  test("worker 63, the sign bit of a worker mask, computes and is shared") {
    // Both queries compute on worker 63; q1 also on worker 0 and sends one
    // message 0 -> 63. Worker 63 runs 2 + 1 units shared: q1 drains it at
    // t = 2 and q0 at t = 3.
    val stats = Vector(
      stat(0, 0, Map(63 -> 2)),
      stat(1, 0, Map(0 -> 1, 63 -> 1), Map((0, 63) -> 1)))
    val hybrid = simulate(stats, k = 64, BarrierMode.Hybrid, c)
    assert(math.abs(hybrid.latency(0) - 3.25) < 1e-9 && math.abs(hybrid.latency(1) - 6.6) < 1e-9, hybrid)
    // One round: compute 3, the larger post-compute delay 0.6, then the
    // global barrier 2 + 64.
    val shared = simulate(stats, k = 64, BarrierMode.SharedGlobal, c)
    assert(shared.latency.keySet === Set(0, 1))
    assert(shared.latency.values.forall(l => math.abs(l - 69.6) < 1e-9) && shared.makespan === shared.latency(0), shared)
  }

  test("BSP-global: a short query ends with its last round, the batch with the longest query") {
    // q3 computes 1 unit in each of three rounds, q8 2 units in round 0 on
    // another worker; a round pays its compute and the barrier 2 + 2.
    val stats = Vector(
      stat(3, 0, Map(0 -> 1)), stat(3, 1, Map(0 -> 1)), stat(3, 2, Map(0 -> 1)),
      stat(8, 0, Map(1 -> 2)))
    val r = simulate(stats, k = 2, BarrierMode.SharedGlobal, c)
    assert(r.latency === Map(3 -> 16.0, 8 -> 6.0) && r.makespan === 16.0)
  }

  test("up to four latencies are kept in qid order, the order sumLatency adds them in") {
    val stats = Vector(stat(9, 0, Map(0 -> 3)), stat(2, 0, Map(1 -> 5)), stat(5, 0, Map(0 -> 1), Map((0, 1) -> 2)))
    for (mode <- modes) {
      val r = simulate(stats, k = 2, mode, c)
      assert(r.latency.keys.toList === List(2, 5, 9), mode)
      assert(r.sumLatency === 0.0 + r.latency(2) + r.latency(5) + r.latency(9), mode)
    }
  }

  test("contention: co-located queries are slower than spread queries") {
    val colocated = Vector(stat(0, 0, Map(0 -> 4)), stat(1, 0, Map(0 -> 4)))
    val spread = Vector(stat(0, 0, Map(0 -> 4)), stat(1, 0, Map(1 -> 4)))
    val rc = simulate(colocated, 2, BarrierMode.Hybrid, c)
    val rs = simulate(spread, 2, BarrierMode.Hybrid, c)
    assert(rc.sumLatency > rs.sumLatency,
      s"colocated ${rc.sumLatency} should exceed spread ${rs.sumLatency}")
  }

  test("fixed per-iteration worker cost: every involved worker pays it once") {
    val cf = c.copy(tIterWorker = 10.0)
    // One iteration, 1 active vertex on w0, messages to w1: both workers
    // are involved; they work in parallel -> compute = max(10+1, 10+0) = 11.
    val stats = Vector(stat(0, 0, Map(0 -> 1), Map((0, 1) -> 1)))
    val r = simulate(stats, k = 2, BarrierMode.Hybrid, cf)
    val comm = 0.5 + 0.1
    val barrier = 2.0 + 2 * 1.0
    assert(math.abs(r.latency(0) - (11.0 + comm + barrier)) < 1e-9)
  }

  test("fixed cost makes a split query consume more system capacity than a local one") {
    val cf = c.copy(tIterWorker = 10.0, tVertex = 0.001)
    // Two co-located queries, each local: PS on one worker -> ~2x10.
    val local = Vector(stat(0, 0, Map(0 -> 1)), stat(1, 0, Map(0 -> 1)))
    // Two queries each split across both workers: every worker pays the
    // fixed cost twice -> also ~2x10 on the critical path, but now BOTH
    // workers are saturated (the split wastes a worker's capacity).
    val split = Vector(
      stat(0, 0, Map(0 -> 1, 1 -> 1)),
      stat(1, 0, Map(0 -> 1, 1 -> 1)))
    val rl = simulate(local, 2, BarrierMode.Hybrid, cf)
    val rs = simulate(split, 2, BarrierMode.Hybrid, cf)
    assert(rs.latency(0) > rl.latency(0))
  }

  // Vertex work only, so a latency is pure processor-shared compute.
  private val workOnly = CostModel(tVertex = 1.0, tIterWorker = 0.0, tMsgRemote = 0.0, tFlushPair = 0.0,
    tBarrierBase = 0.0, tBarrierPerWorker = 0.0, tBarrierLocal = 0.0, tGlobalStopStart = 0.0,
    tMovePerVertex = 0.0)

  test("k=16: queries on disjoint workers each finish at their own largest per-worker work") {
    val stats = Vector(
      stat(0, 0, Map(1 -> 3, 7 -> 7, 10 -> 9, 11 -> 3, 12 -> 7)),
      stat(1, 0, Map(2 -> 8, 5 -> 8, 6 -> 2, 8 -> 3, 13 -> 9)))
    val r = simulate(stats, k = 16, BarrierMode.Hybrid, workOnly)
    assert(math.abs(r.latency(0) - 9.0) < 1e-9, r.latency)
    assert(math.abs(r.latency(1) - 9.0) < 1e-9, r.latency)
  }

  test("k=16: a lock-step round lasts the largest per-worker total work") {
    val stats = Vector(
      stat(0, 0, Map(6 -> 6, 7 -> 7, 11 -> 4, 15 -> 6)),
      stat(1, 0, Map(0 -> 6, 1 -> 5, 8 -> 9, 10 -> 8, 15 -> 9)),
      stat(2, 0, Map(0 -> 7, 2 -> 3, 6 -> 7, 9 -> 4, 10 -> 1, 14 -> 8, 15 -> 4)))
    // Worker 15 carries 6 + 9 + 4 = 19 units, more than any other worker.
    val shared = simulate(stats, k = 16, BarrierMode.SharedGlobal, workOnly)
    for (q <- 0 to 2) assert(math.abs(shared.latency(q) - 19.0) < 1e-9, shared.latency)
    // Decoupled, q1 holds the largest share of worker 15 and drains it last.
    val hybrid = simulate(stats, k = 16, BarrierMode.Hybrid, workOnly)
    assert(math.abs(hybrid.latency(1) - 19.0) < 1e-9, hybrid.latency)
  }

  test("a localized single-worker query beats the same query split across workers") {
    // Same compute volume; the split version pays comm + a wider barrier.
    val local = Vector(stat(0, 0, Map(0 -> 8)), stat(0, 1, Map(0 -> 8)))
    val split = Vector(
      stat(0, 0, Map(0 -> 4, 1 -> 4), Map((0, 1) -> 4, (1, 0) -> 4)),
      stat(0, 1, Map(0 -> 4, 1 -> 4), Map((0, 1) -> 4, (1, 0) -> 4)))
    val rl = simulate(local, 2, BarrierMode.Hybrid, c)
    val rsp = simulate(split, 2, BarrierMode.Hybrid, c)
    // local: (8 + 0.25) * 2 = 16.5; split: (4 + 1.8 + 4) * 2 = 19.6
    assert(rl.latency(0) < rsp.latency(0))
  }
}
