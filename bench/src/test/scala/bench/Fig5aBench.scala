package bench

import repro.SparkSpec
import repro.exp.Figures

/** Fig. 5a: adaptive query-aware partitioning on BW over time, with the
  * intra-urban -> inter-urban workload disturbance; the paper's claim is
  * `Figures.fig5a.claim`.
  */
class Fig5aBench extends SparkSpec {

  private lazy val rep = Figures.fig5a.harness(spark)

  test("report: Fig 5a") {
    println(Figures.fig5a.report(rep))
  }

  test("Q-cut substantially reduces latency vs static Hash in phase 1") {
    assert(rep.maxReductionVsHash > 0.25,
      f"max reduction ${rep.maxReductionVsHash * 100}%.1f%% (paper: up to 49%%)")
  }

  test("Q-cut reduces latency vs static Domain in phase 1") {
    assert(rep.maxReductionVsDomain > 0.0,
      f"max reduction ${rep.maxReductionVsDomain * 100}%.1f%% (paper: up to 40%%)")
  }

  test("Q-cut latency improves over its own first batch (adaptation over time)") {
    val s = rep.batchSeries("Hash+Q-cut")
    val early = s.take(2).min
    val late = s.slice(rep.nBatchesPhase1 - 4, rep.nBatchesPhase1).min
    assert(late < early, s"late $late vs early $early")
  }

  test("during the disturbance phase Q-cut still beats static Hash in late batches") {
    val n = rep.batchSeries("Hash").size
    val lateFrom = rep.nBatchesPhase1 + (n - rep.nBatchesPhase1) / 2
    val red = rep.maxReduction("Hash", "Hash+Q-cut", lateFrom, n)
    assert(red > 0.0, f"late-disturbance reduction ${red * 100}%.1f%%")
  }
}
