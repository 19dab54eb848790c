package bench

import repro.SparkSpec
import repro.exp.{Experiments, Reports}

/** Figs. 6a/6b/6c: summed query latency of the four strategies.
  * Paper: (6a) BW SSSP: -43% vs Hash, -22% vs Domain; (6b) GY SSSP: -13%
  * vs Hash, -25% vs Domain; (6c) BW POI: -50% vs Hash, -28% vs Domain.
  */
class Fig6abcBench extends SparkSpec {

  private lazy val t6a = BenchData.bwAdaptivity.phase1Totals("BW / SSSP (Fig 6a)")
  private lazy val t6b = BenchData.gyAdaptivity.phase1Totals("GY / SSSP (Fig 6b)")
  private lazy val t6c = Experiments.totals("BW / POI (Fig 6c)", BenchData.bwPoiFourWay)

  test("report: Fig 6a") {
    println(Reports.totals(t6a, "Fig 6a", "-43% vs Hash, -22% vs Domain"))
  }
  test("report: Fig 6b") {
    println(Reports.totals(t6b, "Fig 6b", "-13% vs Hash, -25% vs Domain"))
  }
  test("report: Fig 6c") {
    println(Reports.totals(t6c, "Fig 6c", "-50% vs Hash, -28% vs Domain"))
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
