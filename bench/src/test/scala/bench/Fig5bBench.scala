package bench

import repro.SparkSpec
import repro.exp.Figures

/** Fig. 5b: the adaptivity experiment on the larger GY graph; the paper's
  * claim is `Figures.fig5b.claim`. Workload balancing matters relatively
  * more than on BW (the "Berlin" straggler), so static Hash fares
  * comparatively better.
  */
class Fig5bBench extends SparkSpec {

  private lazy val rep = Figures.fig5b.harness(spark)
  private lazy val bw = Figures.fig5a.harness(spark)

  test("report: Fig 5b") {
    println(Figures.fig5b.report(rep))
  }

  test("Q-cut substantially reduces latency vs static Hash") {
    assert(rep.maxReductionVsHash > 0.2,
      f"max reduction ${rep.maxReductionVsHash * 100}%.1f%% (paper: up to 45%%)")
  }

  test("Q-cut reduces latency vs static Domain") {
    assert(rep.maxReductionVsDomain > 0.0,
      f"max reduction ${rep.maxReductionVsDomain * 100}%.1f%% (paper: up to 30%%)")
  }

  test("Hash is relatively stronger on GY than on BW (balancing matters more)") {
    // Paper: "for the larger GY graph, workload balancing is a more
    // important objective" — static Hash's disadvantage vs static Domain
    // shrinks on GY compared to BW.
    def hashOverDomain(r: repro.exp.Experiments.AdaptivityReport): Double = {
      val h = r.batchSeries("Hash").take(r.nBatchesPhase1)
      val d = r.batchSeries("Domain").take(r.nBatchesPhase1)
      h.sum / d.sum
    }
    assert(hashOverDomain(rep) < hashOverDomain(bw),
      "Hash/Domain latency ratio should be smaller on GY than on BW")
  }
}
