package repro.qcut

import org.scalatest.funsuite.AnyFunSuite

class QCutIlsSpec extends AnyFunSuite {

  /** Four queries, each split across two of four workers; separable with
    * room to balance. Optimal cost is 0.
    */
  private def instance(delta: Double = 0.75): QCutState = {
    val atoms = Vector(
      Atom(Vector(0), 0, Array(0, 1)), Atom(Vector(0), 1, Array(2, 3)),
      Atom(Vector(1), 1, Array(4, 5)), Atom(Vector(1), 2, Array(6, 7)),
      Atom(Vector(2), 2, Array(8, 9)), Atom(Vector(2), 3, Array(10, 11)),
      Atom(Vector(3), 3, Array(12, 13)), Atom(Vector(3), 0, Array(14, 15)))
    QCutState.build(atoms, Array(4L, 4L, 4L, 4L), k = 4, delta = delta,
      clusterOfQuery = KargerClustering.identityClusters(4))
  }

  test("ILS reaches zero cost on the separable instance") {
    val r = QCut.optimize(instance(), IlsConfig(budgetMs = 500, maxRounds = 50, seed = 3))
    assert(r.bestCost === 0L, s"history: ${r.history}")
  }

  test("best cost is non-increasing over the history (Fig 6g shape)") {
    val r = QCut.optimize(instance(), IlsConfig(budgetMs = 500, maxRounds = 50, seed = 4))
    val costs = r.history.map(_.bestCost)
    assert(costs.zip(costs.tail).forall { case (a, b) => b <= a }, costs.toString)
  }

  test("initial cost is recorded and reduction computed") {
    val r = QCut.optimize(instance(), IlsConfig(budgetMs = 500, maxRounds = 50, seed = 5))
    assert(r.initialCost === 8L) // every query loses half its scope
    assert(r.reduction === 1.0)
  }

  test("the result state stays globally balanced") {
    val r = QCut.optimize(instance(), IlsConfig(budgetMs = 500, maxRounds = 50, seed = 6))
    assert(r.best.globallyBalanced)
  }

  test("maxRounds = 1 performs only the initial local search") {
    val r = QCut.optimize(instance(), IlsConfig(budgetMs = 10000, maxRounds = 1, seed = 7))
    assert(r.history.size === 1)
    assert(!r.history.head.afterPerturbation)
  }

  test("a budget shorter than one descent still returns the first local minimum") {
    val r = QCut.optimize(instance(), IlsConfig(budgetMs = 0, maxRounds = 50, seed = 3))
    val s = instance().copyState()
    LocalSearch.run(s)
    assert(r.history.size === 1)
    assert(r.bestCost === s.cost)
    assert(r.bestCost < r.initialCost)
  }

  test("deterministic under a fixed seed and maxRounds") {
    def go(seed: Long) =
      QCut.optimize(instance(), IlsConfig(budgetMs = 100000, maxRounds = 20, seed = seed))
    val a = go(11); val b = go(11)
    assert(a.history.map(h => (h.round, h.bestCost)) === b.history.map(h => (h.round, h.bestCost)))
    assert((0 until a.best.atoms.size).map(a.best.assign(_)) ===
      (0 until b.best.atoms.size).map(b.best.assign(_)))
  }

  test("perturbation points are flagged in the history") {
    val r = QCut.optimize(instance(), IlsConfig(budgetMs = 500, maxRounds = 10, seed = 12))
    assert(r.history.tail.forall(_.afterPerturbation))
  }

  test("optimize does not mutate the initial state") {
    val s = instance()
    val before = (0 until s.atoms.size).map(s.assign(_))
    QCut.optimize(s, IlsConfig(budgetMs = 200, maxRounds = 10, seed = 13))
    assert((0 until s.atoms.size).map(s.assign(_)) === before)
  }

  test("a tight balance constraint is never violated even at higher cost") {
    val r = QCut.optimize(instance(delta = 0.1), IlsConfig(budgetMs = 300, maxRounds = 20, seed = 14))
    assert(r.best.globallyBalanced)
    assert(r.bestCost >= 0L)
  }

  test("an already-perfect instance terminates by exhaustion") {
    val atoms = Vector(
      Atom(Vector(0), 0, Array(0, 1)),
      Atom(Vector(1), 1, Array(2, 3)))
    val s = QCutState.build(atoms, Array(2L, 2L), k = 2, delta = 0.75,
      clusterOfQuery = KargerClustering.identityClusters(2))
    val r = QCut.optimize(s, IlsConfig(budgetMs = 10000, maxRounds = 1000, seed = 15))
    assert(r.bestCost === 0L)
    assert(r.history.size < 5, "exhaustion should stop the loop early")
  }
}
