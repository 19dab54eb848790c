package repro.qcut

import scala.util.Random

/** Configuration of one ILS run.
  *
  * @param budgetMs   wall-clock budget — the paper gives the controller 2
  *                   seconds and interrupts "as soon as a result is needed"
  *                   (Appendix A.3). It is checked between rounds, so the
  *                   first local search always runs to its local minimum
  *                   and a round that has started finishes
  * @param maxRounds  deterministic cap on ILS rounds; tests and benches stop
  *                   on it before the wall-clock budget, so their results
  *                   are reproducible
  * @param seed       RNG seed for perturbation and clustering
  */
final case class IlsConfig(budgetMs: Long = 2000, maxRounds: Int = Int.MaxValue, seed: Long = 17)

/** One point of the ILS convergence history (Fig. 6g): the best cost found
  * after each local-search convergence, and whether the preceding step was a
  * perturbation.
  */
final case class HistoryPoint(round: Int, elapsedMs: Long, bestCost: Long, afterPerturbation: Boolean)

final case class IlsResult(best: QCutState, initialCost: Long, history: Vector[HistoryPoint]) {
  def bestCost: Long = history.lastOption.map(_.bestCost).getOrElse(initialCost)
  /** Relative cost reduction achieved by the run (Fig. 6g reports > 75%). */
  def reduction: Double = if (initialCost == 0) 0.0 else 1.0 - bestCost.toDouble / initialCost
}

/** Algorithm 1: iterated local search for Q-cut partitioning.
  *
  *   s_hat <- InitialSolution()            // the incumbent partitioning
  *   while not Terminated():
  *     s <- Perturbation(s_hat); s <- LocalSearch(s)
  *     if c_s < c_s_hat: s_hat <- s
  *
  * The first round runs LocalSearch directly on the initial solution (a
  * perturbation of an un-optimised state would discard the incumbent
  * structure before it was ever searched).
  *
  * Terminated() is the one stopping rule: the round cap, the wall-clock
  * budget checked between rounds, or a state with perfect cluster locality
  * that perturbation cannot diversify. The paper's ILS must "provide the best
  * found solution when interrupted" (Section 3.2.2); the incumbent after each
  * round is that solution.
  */
object QCut {

  def optimize(initial: QCutState, cfg: IlsConfig): IlsResult = {
    val rng = new Random(cfg.seed)
    val start = System.nanoTime()
    def elapsedMs: Long = (System.nanoTime() - start) / 1000000L
    val initialCost = initial.cost

    var best = initial.copyState()
    LocalSearch.run(best)
    val history = scala.collection.mutable.ArrayBuffer(
      HistoryPoint(0, elapsedMs, best.cost, afterPerturbation = false))

    var round = 1
    var exhausted = false
    while (!exhausted && round < cfg.maxRounds && elapsedMs < cfg.budgetMs) {
      val s = best.copyState()
      val perturbed = Perturbation.run(s, rng)
      if (!perturbed) exhausted = true // perfect cluster locality: no diversification possible
      else {
        LocalSearch.run(s)
        if (s.cost < best.cost) best = s
        history += HistoryPoint(round, elapsedMs, best.cost, afterPerturbation = true)
      }
      round += 1
    }
    IlsResult(best, initialCost, history.toVector)
  }
}
