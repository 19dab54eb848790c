package bench

import repro.SparkSpec
import repro.exp.Figures

/** Figs. 6e/6f: workload imbalance and query locality of the four
  * strategies on BW SSSP; the paper's claims are `Figures.fig6ef.claim`.
  * δ = 0.25 bounds Q-cut's imbalance, so it trades a little of Domain's
  * locality for balance.
  */
class Fig6efBench extends SparkSpec {

  private lazy val rep = Figures.fig6ef.harness(spark)

  test("report: Fig 6e/6f") {
    println(Figures.fig6ef.report(rep))
  }

  test("Fig 6e shape: Hash balanced, Domain imbalanced, Q-cut in between") {
    val h = rep.steadyStateTail(rep.imbalance, "Hash")
    val d = rep.steadyStateTail(rep.imbalance, "Domain")
    val q = rep.steadyStateTail(rep.imbalance, "Hash+Q-cut")
    assert(h < d, f"Hash $h%.2f must be below Domain $d%.2f")
    assert(q < d, f"Q-cut $q%.2f must stay below Domain $d%.2f (balance constraint)")
  }

  test("Fig 6f shape: Domain near-perfect locality, Hash low, Q-cut converges high") {
    val h = rep.steadyStateTail(rep.locality, "Hash")
    val d = rep.steadyStateTail(rep.locality, "Domain")
    val q = rep.steadyStateTail(rep.locality, "Hash+Q-cut")
    assert(d > 0.85, f"Domain locality $d%.2f (paper >95%%)")
    assert(h < 0.6, f"Hash locality $h%.2f (paper ~38%%)")
    assert(q > h + 0.2, f"Q-cut locality $q%.2f must clearly exceed Hash $h%.2f")
    assert(q < d + 0.01, "Q-cut trades a little locality for balance vs Domain")
  }

  test("locality of Hash+Q-cut increases over the intra-urban phase (convergence)") {
    val series = rep.locality("Hash+Q-cut").take(rep.nBatchesPhase1)
    assert(series.last > series.head, series.toString)
  }
}
