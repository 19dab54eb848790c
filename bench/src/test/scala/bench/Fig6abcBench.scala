package bench

import repro.SparkSpec
import repro.exp.Figures

/** Figs. 6a/6b/6c: summed query latency of the four strategies; the
  * paper's claims are `Figures.fig6abc.claim`.
  */
class Fig6abcBench extends SparkSpec {

  private lazy val rep = Figures.fig6abc.harness(spark)
  private lazy val (t6a, t6b, t6c) = rep

  test("report: Fig 6a/6b/6c") {
    println(Figures.fig6abc.report(rep))
  }

  test("Fig 6a shape: Q-cut reduces BW SSSP totals vs both static partitionings") {
    assert(t6a.reduction("Hash", "Hash+Q-cut") > 0.15,
      f"vs Hash: ${t6a.reduction("Hash", "Hash+Q-cut") * 100}%.1f%% (paper 43%%)")
    assert(t6a.reduction("Domain", "Domain+Q-cut") > -0.05,
      f"vs Domain: ${t6a.reduction("Domain", "Domain+Q-cut") * 100}%.1f%% (paper 22%%)")
  }

  test("Fig 6b shape: Q-cut reduces GY SSSP totals vs both static partitionings") {
    assert(t6b.reduction("Hash", "Hash+Q-cut") > 0.0,
      f"vs Hash: ${t6b.reduction("Hash", "Hash+Q-cut") * 100}%.1f%% (paper 13%%)")
    assert(t6b.reduction("Domain", "Domain+Q-cut") > -0.05,
      f"vs Domain: ${t6b.reduction("Domain", "Domain+Q-cut") * 100}%.1f%% (paper 25%%)")
  }

  test("Fig 6c shape: Q-cut reduces BW POI totals vs Hash strongly") {
    assert(t6c.reduction("Hash", "Hash+Q-cut") > 0.15,
      f"vs Hash: ${t6c.reduction("Hash", "Hash+Q-cut") * 100}%.1f%% (paper 50%%)")
  }

  test("crossover shape: Hash hurts more on BW than Domain does (6a), query-type robustness (6c)") {
    // On BW both SSSP and POI favour Q-cut over static Hash by a similar or
    // larger margin (the paper's 43% vs 50%).
    assert(t6c.reduction("Hash", "Hash+Q-cut") > 0.5 * t6a.reduction("Hash", "Hash+Q-cut"))
  }
}
