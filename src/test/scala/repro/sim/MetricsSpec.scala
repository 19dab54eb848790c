package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestFixtures}
import repro.qcut.{KargerClustering, QCutState, ScopeAtoms}

class MetricsSpec extends AnyFunSuite {

  private def stat(qid: Int, iter: Int, act: Map[Int, Int],
                   remote: Map[(Int, Int), Int] = Map.empty): Oracle.IterStat =
    Oracle.IterStat(qid, iter, act, remote)

  test("query locality counts fully-local iterations") {
    val stats = Vector(
      stat(0, 0, Map(0 -> 1)),
      stat(0, 1, Map(0 -> 2, 1 -> 1)),
      stat(0, 2, Map(0 -> 1)),
      stat(0, 3, Map(0 -> 1)))
    assert(Metrics.queryLocality(TestFixtures.stats(stats)) === Map(0 -> 0.75))
  }

  test("the metric is compute-locality: a remote message does not break it") {
    // The paper's Fig 6f metric counts iterations whose *active vertices*
    // share a worker; message fan-out only matters for the barrier model.
    val s = stat(0, 0, Map(0 -> 1), Map((0, 1) -> 1))
    val b = TestFixtures.stats(Vector(s))
    assert(Metrics.queryLocality(b) === Map(0 -> 1.0))
    assert(!b.isLocal(0), "the synchronization-sense locality does consider messages")
    assert(b.isComputeLocal(0))
  }

  test("average locality averages per query, not per iteration") {
    val stats = Vector(
      stat(0, 0, Map(0 -> 1)), stat(0, 1, Map(0 -> 1)), stat(0, 2, Map(0 -> 1)),
      stat(1, 0, Map(0 -> 1, 1 -> 1)))
    // q0 locality 1.0, q1 locality 0.0 -> average 0.5 (not 3/4)
    assert(Metrics.avgQueryLocality(TestFixtures.stats(stats)) === 0.5)
  }

  test("workload imbalance of a perfectly balanced assignment is 0") {
    val stats = TestFixtures.stats(Vector(stat(0, 0, Map(0 -> 5, 1 -> 5))))
    assert(Metrics.windowImbalance(Seq(Metrics.workerLoads(stats, 2)), 2) === 0.0)
  }

  test("workload imbalance of a fully skewed assignment") {
    val stats = TestFixtures.stats(Vector(stat(0, 0, Map(0 -> 10))))
    // loads (10, 0), avg 5 -> mean deviation 5 -> 5/5 = 1.0
    assert(Metrics.windowImbalance(Seq(Metrics.workerLoads(stats, 2)), 2) === 1.0)
  }

  test("sliding imbalance smooths opposite single-batch skews to zero") {
    // Batch 1 all on worker 0, batch 2 all on worker 1: each batch alone is
    // fully imbalanced, the 2-batch window is perfectly balanced.
    val loads = Seq(Vector(10L, 0L), Vector(0L, 10L))
    val s = Metrics.slidingImbalance(loads, k = 2, window = 2)
    assert(s === Vector(1.0, 0.0))
  }

  test("sliding imbalance with window 1 equals the per-batch metric") {
    val loads = Seq(Vector(10L, 0L), Vector(5L, 5L))
    assert(Metrics.slidingImbalance(loads, 2, window = 1) === Vector(1.0, 0.0))
  }

  test("imbalanceOfLoads hand cases") {
    assert(Metrics.imbalanceOfLoads(Seq(1.0, 1.0, 1.0)) === 0.0)
    assert(Metrics.imbalanceOfLoads(Seq(2.0, 0.0)) === 1.0)
    assert(Metrics.imbalanceOfLoads(Seq(0.0, 0.0)) === 0.0)
  }

  test("empty stats yield locality 1 and imbalance 0") {
    val empty = TestFixtures.stats(Vector.empty)
    assert(Metrics.avgQueryLocality(empty) === 1.0)
    assert(Metrics.windowImbalance(Seq(Metrics.workerLoads(empty, 4)), 4) === 0.0)
  }

  test("queryCut counts non-empty local scopes per query") {
    val trace = TestFixtures.smallSsspTraces.head
    val singleWorker = Oracle.queryCut(trace, _ => 0)
    assert(singleWorker === trace.queries.size, "one worker -> |Q| scopes")
    val spread = Oracle.queryCut(trace, v => v % 4)
    assert(spread >= singleWorker)
  }

  test("qcutCost is zero iff every query lives on one worker") {
    val trace = TestFixtures.smallSsspTraces.head
    assert(Oracle.qcutCost(trace, _ => 0) === 0L)
    assert(Oracle.qcutCost(trace, v => v % 4) > 0L)
  }

  test("qcutCost agrees with QCutState.cost on the same scopes") {
    val trace = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val assign = repro.partition.HashPartitioner.assign(g, 4)
    val scopes = trace.queries.map(q => q.qid -> trace.globalScope(q.qid)).toMap
    val atoms = ScopeAtoms.build(scopes, assign(_))
    val totals = Array.fill(4)(0L)
    assign.foreach(w => totals(w) += 1)
    val qids = atoms.flatMap(_.sig).distinct.sorted
    val st = QCutState.build(atoms, totals, 4, 0.25, KargerClustering.identityClusters(qids.size))
    assert(st.cost === Oracle.qcutCost(trace, assign(_)))
  }

  test("locality of the same trace improves when scopes are consolidated") {
    val trace = TestFixtures.smallSsspTraces.head
    val g = TestFixtures.small
    val domain = repro.partition.DomainPartitioner.assign(g, 4)
    val hash = repro.partition.HashPartitioner.assign(g, 4)
    val locD = Metrics.avgQueryLocality(IterationStats.compute(trace, domain(_)))
    val locH = Metrics.avgQueryLocality(IterationStats.compute(trace, hash(_)))
    assert(locD > locH)
  }
}
