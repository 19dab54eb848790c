package repro.qcut

import org.scalatest.funsuite.AnyFunSuite

class LocalSearchSpec extends AnyFunSuite {

  /** Two independent queries, each split 50/50 across two workers; merging
    * each onto one worker is the obvious optimum (cost 0) and keeps balance.
    */
  // Default delta 0.75: the intermediate one-query-merged state has loads
  // (6, 2) -> relative difference 0.667, which must stay inside the allowed
  // imbalance for the two-step optimum to be reachable.
  private def splitState(delta: Double = 0.75): QCutState = {
    val atoms = Vector(
      Atom(Vector(0), 0, Array(0, 1)),
      Atom(Vector(0), 1, Array(2, 3)),
      Atom(Vector(1), 0, Array(4, 5)),
      Atom(Vector(1), 1, Array(6, 7)))
    QCutState.build(atoms, Array(4L, 4L), k = 2, delta = delta,
      clusterOfQuery = KargerClustering.identityClusters(2))
  }

  test("local search reaches the optimum on the separable instance") {
    val s = splitState()
    val steps = LocalSearch.run(s)
    assert(s.cost === 0L, s"after $steps steps")
    // Each query must be whole on one worker.
    for (q <- 0 to 1) {
      assert((0 to 1).count(w => s.localScope(q, w) > 0) === 1)
    }
  }

  test("every accepted step strictly decreases cost") {
    val s = splitState()
    var prev = s.cost
    var continue = true
    while (continue) {
      new LocalSearch.SuccessorTable(s).successor match {
        case Some((m, c)) if c < prev =>
          s.moveCluster(m.c, m.from, m.to)
          assert(s.cost === c)
          assert(s.cost < prev)
          prev = s.cost
        case _ => continue = false
      }
    }
    assert(prev === 0L)
  }

  test("search result is a local minimum (no balanced improving successor)") {
    val s = splitState()
    LocalSearch.run(s)
    new LocalSearch.SuccessorTable(s).successor match {
      case Some((_, c)) => assert(c >= s.cost)
      case None         => succeed
    }
  }

  test("the balance constraint blocks the merge under a tight delta") {
    // With delta = 0.1 merging any query would unbalance the pair; local
    // search must keep the (balanced) split state.
    val s = splitState(delta = 0.1)
    LocalSearch.run(s)
    assert(s.cost === 4L, "tight balance must prevent any merge (initial cost kept)")
    assert(s.globallyBalanced)
  }

  test("successors exclude the source worker itself") {
    val s = splitState()
    new LocalSearch.SuccessorTable(s).successor.foreach { case (m, _) => assert(m.from !== m.to) }
  }

  test("local search on an already perfect state does nothing") {
    val atoms = Vector(
      Atom(Vector(0), 0, Array(0, 1)),
      Atom(Vector(1), 1, Array(2, 3)))
    val s = QCutState.build(atoms, Array(2L, 2L), k = 2, delta = 0.6,
      clusterOfQuery = KargerClustering.identityClusters(2))
    assert(s.cost === 0L)
    assert(LocalSearch.run(s) === 0)
    assert(s.cost === 0L)
  }
}
