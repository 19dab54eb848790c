package bench

import repro.SparkSpec
import repro.exp.Figures

/** Fig. 6d: hybrid barrier synchronization vs traditional BSP-like global
  * barriers, on static Hash and static Domain (64 SSSP queries, BW, k=8);
  * the paper's claim is `Figures.fig6d.claim`.
  */
class Fig6dBench extends SparkSpec {

  private lazy val rep = Figures.fig6d.harness(spark)

  test("report: Fig 6d") {
    println(Figures.fig6d.report(rep))
  }

  test("hybrid barrier reduces total latency on Hash (paper: 1.2-1.7x)") {
    assert(rep.speedupHybrid("Hash") > 1.05, f"${rep.speedupHybrid("Hash")}%.2fx")
  }

  test("hybrid barrier reduces total latency on Domain (paper: 1.2-1.7x)") {
    assert(rep.speedupHybrid("Domain") > 1.05, f"${rep.speedupHybrid("Domain")}%.2fx")
  }

  test("better partitioning (Domain) reduces latency under both barrier models (paper: 1.7-2.4x)") {
    assert(rep.domainOverHash("BSP-global") > 1.1, f"${rep.domainOverHash("BSP-global")}%.2fx")
    assert(rep.domainOverHash("hybrid") > 1.1, f"${rep.domainOverHash("hybrid")}%.2fx")
  }

  test("the hybrid gain is larger on the local-friendly Domain partitioning") {
    // Local barriers only pay off when queries actually run locally —
    // Domain has far more local iterations than Hash.
    assert(rep.speedupHybrid("Domain") >= rep.speedupHybrid("Hash") * 0.9)
  }
}
