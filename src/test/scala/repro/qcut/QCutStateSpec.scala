package repro.qcut

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle

class QCutStateSpec extends AnyFunSuite {

  /** k=2; q0 on {a0: w0 x2, a1: w1 x1}, q1 on {a2: w1 x2}, shared a3 on w0 x1.
    * totalPerWorker = (5, 5) (2 untouched on each side).
    */
  private def mkState(delta: Double = 10.0): QCutState = {
    val atoms = Vector(
      Atom(Vector(0), 0, Array(0, 1)),
      Atom(Vector(0), 1, Array(2)),
      Atom(Vector(1), 1, Array(3, 4)),
      Atom(Vector(0, 1), 0, Array(5)))
    QCutState.build(atoms, Array(5L, 5L), k = 2, delta = delta,
      clusterOfQuery = KargerClustering.identityClusters(2))
  }

  /** The vertices of `mkState` that no atom holds: 2 on each worker. */
  private val untouched = Array(2L, 2L)

  test("initial local scopes") {
    val s = mkState()
    assert(s.localScope(0, 0) === 3L) // a0 + a3
    assert(s.localScope(0, 1) === 1L) // a1
    assert(s.localScope(1, 0) === 1L) // a3
    assert(s.localScope(1, 1) === 2L) // a2
  }

  test("initial cost is the query-cut cost") {
    // q0: 4 total, max 3 -> 1; q1: 3 total, max 2 -> 1
    assert(mkState().cost === 2L)
  }

  test("workload L_w = (|V(w)| + sum_q |LS(q,w)|) / 2") {
    val s = mkState()
    // w0: V=5, S = 2 (a0) + 2 (a3 in two scopes) = 4 -> 4.5
    assert(s.load(0) === 4.5)
    // w1: V=5, S = 1 + 2 = 3 -> 4.0
    assert(s.load(1) === 4.0)
  }

  test("cluster scopes aggregate atoms by cluster") {
    val s = mkState()
    assert(s.clusterScope(0, 0) === 3L)
    assert(s.clusterScope(0, 1) === 1L)
    assert(s.clusterScope(1, 0) === 1L)
    assert(s.clusterScope(1, 1) === 2L)
  }

  test("moveCluster relocates exactly the intersecting atoms on the source worker") {
    val s = mkState()
    s.moveCluster(0, 1, 0) // a1 only
    assert(s.assign.toSeq === Seq(0, 0, 1, 0))
    assert(s.localScope(0, 0) === 4L && s.localScope(0, 1) === 0L)
    assert(s.cost === 1L) // q0 perfect, q1 still split
  }

  test("moving the shared atom affects both queries") {
    val s = mkState()
    s.moveCluster(1, 0, 1) // cluster of q1 on w0 = a3 (shared with q0)
    assert(s.localScope(1, 1) === 3L && s.localScope(1, 0) === 0L)
    assert(s.localScope(0, 0) === 2L && s.localScope(0, 1) === 2L)
    // q0: 4 total max 2 -> 2; q1: 0 -> cost 2
    assert(s.cost === 2L)
  }

  test("after each move, the state equals a fresh build from the moved atoms") {
    val s = mkState()
    for ((c, from, to) <- Seq((0, 0, 1), (1, 1, 0), (0, 1, 0))) {
      s.moveCluster(c, from, to)
      assert(Oracle.counts(s) === Oracle.counts(Oracle.rebuilt(s, untouched)))
    }
    assert(s.assign.toSeq === Seq(0, 0, 0, 0))
  }

  test("copyState is independent of the original") {
    val s = mkState()
    val c = s.copyState()
    s.moveCluster(0, 0, 1)
    assert(c.cost === 2L)
    assert(c.localScope(0, 0) === 3L)
  }

  test("balance predicate follows the delta threshold") {
    val tight = mkState(delta = 0.05)
    // loads 4.5 vs 4.0: |diff|/max = 0.111 >= 0.05 -> unbalanced; with
    // k = 2 the global test is the test of the one pair
    assert(!tight.globallyBalanced)
    val loose = mkState(delta = 0.2)
    assert(loose.globallyBalanced)
  }

  test("the delta-constraint is strict at its boundary") {
    // loads 4.5 vs 4.0; delta equal to their ratio is not inside it
    assert(!mkState(delta = (4.5 - 4.0) / 4.5).globallyBalanced)
    assert(mkState(delta = math.nextUp((4.5 - 4.0) / 4.5)).globallyBalanced)
    // moving a1 (cluster 0 on w1: 1 vertex in 1 scope) to w0 gives loads
    // 5.5 vs 3.0; with k = 2 the moved pair's test is the global one
    val atRatio = mkState(delta = (5.5 - 3.0) / 5.5)
    assert(!atRatio.pairBalancedAfter(1, 0, dV = 1, dS = 1))
    val above = mkState(delta = math.nextUp((5.5 - 3.0) / 5.5))
    assert(above.pairBalancedAfter(1, 0, dV = 1, dS = 1))
    for (s <- Seq(atRatio, above)) {
      s.moveCluster(0, 1, 0)
      assert(s.load(0) === 5.5 && s.load(1) === 3.0)
    }
    assert(!atRatio.globallyBalanced && above.globallyBalanced)
  }

  test("pairBalancedAfter uses exact post-move workloads") {
    val s = mkState(delta = 0.3)
    // moving a0+a3 (cluster 0 on w0) to w1: w0 loses V=3,S=4 -> (2+0)/2=1;
    // w1 gains -> (8+7)/2=7.5; 6.5/7.5 = 0.867 >= 0.3 -> unbalanced
    assert(!s.pairBalancedAfter(0, 1, dV = 3, dS = 4))
    // moving just a1 (cluster 0 on w1) to w0: w1 -> (4+2)/2=3, w0 -> (6+5)/2=5.5
    // 2.5/5.5 = 0.455 >= 0.3 -> still unbalanced under tight delta
    assert(!s.pairBalancedAfter(1, 0, dV = 1, dS = 1))
    assert(mkState(delta = 0.5).pairBalancedAfter(1, 0, dV = 1, dS = 1))
    s.moveCluster(0, 0, 1)
    assert(s.load(0) === 1.0 && s.load(1) === 7.5)
  }

  test("toVertexAssignment applies only moved atoms") {
    val s = mkState()
    val base = Array(0, 0, 1, 1, 1, 0, 0, 0, 1, 1) // 10 vertices; 6..9 untouched
    s.moveCluster(0, 1, 0) // a1 = vertex 2 -> w0
    val (out, movedCount) = s.toVertexAssignment(base)
    assert(movedCount === 1L)
    assert(out(2) === 0)
    assert(out.zipWithIndex.filterNot(_._2 == 2).map(_._1).toSeq ===
      base.zipWithIndex.filterNot(_._2 == 2).map(_._1).toSeq)
  }

  test("build rejects inconsistent totals") {
    val atoms = Vector(Atom(Vector(0), 0, Array(0, 1, 2)))
    intercept[IllegalArgumentException] {
      QCutState.build(atoms, Array(1L, 0L), k = 2, delta = 0.25,
        clusterOfQuery = Array(0))
    }
  }

  test("queryIds are derived from atom signatures") {
    val s = mkState()
    assert(s.nQueries === 2)
  }
}
