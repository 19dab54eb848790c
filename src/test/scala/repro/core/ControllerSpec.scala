package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestFixtures}
import repro.engine._
import repro.qcut.IlsConfig
import repro.sim.IterationStats

class ControllerSpec extends AnyFunSuite {

  /** A synthetic trace: query q owns vertices {10q .. 10q+9}; in iteration
    * i the *pair* (10q+i, 10q+5+i) is active — two active vertices per
    * iteration, so an assignment that splits the pair makes the iteration
    * non-local under the paper's locality metric.
    */
  private def mkTrace(batchId: Int, qids: Seq[Int]): BatchTrace = {
    val queries = qids.map(q => Query(q, QueryKind.Sssp, 10 * q, 10 * q + 4, city = 0, batch = batchId)).toVector
    val acts = for (q <- qids.toVector; i <- 0 to 4; base <- Vector(0, 5))
      yield ActRec(q, i, 10 * q + base + i)
    val msgs = for (q <- qids.toVector; i <- 0 to 3; base <- Vector(0, 5))
      yield MsgRec(q, i, 10 * q + base + i, 10 * q + base + i + 1)
    TestFixtures.trace(acts, msgs, batchId, queries, iterations = 5)
  }

  private def cfg(mu: Double = 1000.0, maxQ: Int = 128) = ControllerConfig(
    muSimSeconds = mu, maxQueries = maxQ, delta = 0.9,
    ils = IlsConfig(budgetMs = 500, maxRounds = 30, seed = 1))

  private val nVerts = 100

  test("window accumulates observed queries") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1))
    c.observeBatch(t, IterationStats.compute(t, _ => 0), now = 1.0)
    assert(c.windowSize === 2)
  }

  test("tumbling window evicts entries older than mu") {
    val c = new Controller(2, cfg(mu = 10.0))
    val t0 = mkTrace(0, Seq(0, 1))
    c.observeBatch(t0, IterationStats.compute(t0, _ => 0), now = 1.0)
    val t1 = mkTrace(1, Seq(2, 3))
    c.observeBatch(t1, IterationStats.compute(t1, _ => 0), now = 20.0)
    assert(c.windowSize === 2, "the first batch must have been evicted")
  }

  test("window is capped at maxQueries (paper: 128)") {
    val c = new Controller(2, cfg(maxQ = 3))
    val t = mkTrace(0, 0 until 10)
    c.observeBatch(t, IterationStats.compute(t, _ => 0), now = 1.0)
    assert(c.windowSize === 3)
  }

  test("perfectly local, balanced execution does not trigger repartitioning") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1))
    // Each query's scope {10q..10q+4} wholly on worker q%2: local and balanced.
    c.observeBatch(t, IterationStats.compute(t, v => (v / 10) % 2), now = 1.0)
    assert(c.avgLocality === 1.0)
    assert(c.lastImbalance === 0.0)
    assert(!c.shouldRepartition)
  }

  test("locality below phi triggers repartitioning") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1))
    // Alternating assignment: every iteration crosses workers -> locality 0.
    c.observeBatch(t, IterationStats.compute(t, v => v % 2), now = 1.0)
    assert(c.avgLocality < 0.7)
    assert(c.shouldRepartition)
  }

  test("repartition consolidates each query's scope onto one worker") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1))
    val assign = Array.tabulate(nVerts)(v => v % 2)
    c.observeBatch(t, IterationStats.compute(t, assign(_)), now = 1.0)
    assert(c.shouldRepartition)
    val out = c.repartition(assign)
    assert(out.movedVertices > 0)
    assert(Oracle.qcutCost(t, out.newAssign(_)) < Oracle.qcutCost(t, assign(_)))
    // With delta = 0.9 both queries can be fully consolidated.
    assert(Oracle.qcutCost(t, out.newAssign(_)) === 0L)
  }

  test("repartition leaves untouched vertices where they were") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1))
    val assign = Array.tabulate(nVerts)(v => v % 2)
    c.observeBatch(t, IterationStats.compute(t, assign(_)), now = 1.0)
    val out = c.repartition(assign)
    val touched = t.queries.flatMap(q => t.globalScope(q.qid)).toSet
    for (v <- 0 until nVerts if !touched.contains(v))
      assert(out.newAssign(v) === assign(v), s"untouched vertex $v moved")
  }

  test("repartition reports the ILS convergence history (Fig 6g input)") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1, 2, 3))
    val assign = Array.tabulate(nVerts)(v => v % 2)
    c.observeBatch(t, IterationStats.compute(t, assign(_)), now = 1.0)
    val out = c.repartition(assign)
    assert(out.ils.history.nonEmpty)
    assert(out.ils.initialCost >= out.ils.bestCost)
  }

  test("heavy workload imbalance triggers repartitioning even when local") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1))
    // Everything on worker 0: perfectly local but maximally imbalanced.
    c.observeBatch(t, IterationStats.compute(t, _ => 0), now = 1.0)
    assert(c.avgLocality === 1.0)
    assert(c.lastImbalance === 1.0)
    assert(c.shouldRepartition, "imbalance beyond the trigger must fire")
  }

  test("repartitioning an imbalanced-but-local state restores balance") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1, 2, 3))
    val assign = Array.fill(nVerts)(0) // all vertices (and scopes) on worker 0
    c.observeBatch(t, IterationStats.compute(t, assign(_)), now = 1.0)
    val out = c.repartition(assign)
    assert(out.movedVertices > 0, "the balance repair must move scopes off worker 0")
    val movedToW1 = out.newAssign.count(_ == 1)
    assert(movedToW1 > 0)
  }

  test("repartition outcome reports gains relative to the incumbent") {
    val c = new Controller(2, cfg())
    val t = mkTrace(0, Seq(0, 1))
    val assign = Array.tabulate(nVerts)(v => v % 2)
    c.observeBatch(t, IterationStats.compute(t, assign(_)), now = 1.0)
    val out = c.repartition(assign)
    // v%2 splits every scope: the incumbent cost is half the scope mass
    // (2 queries x 10 vertices, 5 on the non-argmax worker each).
    assert(out.incumbentCost === 10L)
    assert(out.costGainVsIncumbent === 1.0, "full consolidation -> 100% gain")
    assert(out.maxLoadBefore > 0.0 && out.maxLoadAfter > 0.0)
    assert(!out.rebalanced, "the v%2 incumbent is balanced")
  }

  test("the imbalance trigger is smoothed over recent batches") {
    val c = new Controller(2, cfg())
    // Batch 1: everything on worker 0; batch 2: everything on worker 1.
    val t0 = mkTrace(0, Seq(0, 1))
    c.observeBatch(t0, IterationStats.compute(t0, _ => 0), now = 1.0)
    assert(c.lastImbalance === 1.0)
    val t1 = mkTrace(1, Seq(2, 3))
    c.observeBatch(t1, IterationStats.compute(t1, _ => 1), now = 2.0)
    assert(c.lastImbalance === 0.0, "opposite skews cancel over the horizon")
  }

  test("an empty window reports locality 1") {
    val c = new Controller(2, cfg())
    assert(c.avgLocality === 1.0)
    assert(!c.shouldRepartition)
  }

  test("window keeps the newest queries when capped") {
    val c = new Controller(2, cfg(maxQ = 2))
    val t0 = mkTrace(0, Seq(0, 1))
    c.observeBatch(t0, IterationStats.compute(t0, _ => 0), now = 1.0)
    val t1 = mkTrace(1, Seq(2, 3))
    // Make the new batch non-local so the window average reflects it alone.
    c.observeBatch(t1, IterationStats.compute(t1, v => v % 2), now = 2.0)
    assert(c.windowSize === 2)
    // Every iteration of the v%2-split trace has its active pair on two
    // workers -> locality 0 for the remaining (newest) queries.
    assert(c.avgLocality === 0.0, "only the newest (non-local) queries should remain")
  }
}
