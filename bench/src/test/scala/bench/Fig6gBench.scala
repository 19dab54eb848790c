package bench

import repro.SparkSpec
import repro.exp.Figures

/** Fig. 6g: convergence of the iterated local search on the controller,
  * first execution on the Hash-prepartitioned BW graph with the paper's 2 s
  * budget; the paper's claim is `Figures.fig6g.claim`.
  */
class Fig6gBench extends SparkSpec {

  private lazy val rep = Figures.fig6g.harness(spark)

  test("report: Fig 6g") {
    println(Figures.fig6g.report(rep))
  }

  test("ILS reduces the query-cut cost by a large fraction (paper: >75%)") {
    assert(rep.reduction > 0.5, f"reduction ${rep.reduction * 100}%.1f%%")
  }

  test("the run fits the 2s budget") {
    assert(rep.history.last.elapsedMs <= 2500, s"${rep.history.last.elapsedMs} ms")
  }

  test("best cost is non-increasing and perturbation rounds are recorded") {
    val costs = rep.history.map(_.bestCost)
    assert(costs.zip(costs.tail).forall { case (a, b) => b <= a })
    assert(rep.history.exists(_.afterPerturbation), "perturbations should occur within the budget")
  }
}
