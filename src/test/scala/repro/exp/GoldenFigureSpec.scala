package repro.exp

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import repro.SparkSpec
import repro.exp.Figures.Figure
import scala.collection.mutable

/** Every figure of `Figures` computed once at bench scale, then checked
  * twice from that one report: pinned, its table must equal the committed
  * `figures/<id>.tsv` bit for bit, except wall-clock cells; and gated, the
  * report must keep the shape of the paper's claim (`Figures.<id>.claim`).
  * A change that moves a figure number updates `figures/` and
  * EXPERIMENTS.md with it.
  */
class GoldenFigureSpec extends SparkSpec {

  private val pinned = mutable.ArrayBuffer.empty[String]

  /** Registers the pin test of `f`, whose report is `rep`. */
  private def pin[R](f: Figure[R], rep: => R): Unit = {
    pinned += f.id
    test(s"${f.id} equals the committed ${Figures.tsvFile(f.id)}") {
      val file = Figures.tsvFile(f.id)
      assert(file.isFile, s"missing ${file.getAbsolutePath}; write it with ${Figures.Regenerate}")
      val committed = FigureTable.parseTsv(new String(Files.readAllBytes(file.toPath), UTF_8))
      val table = f.table(rep)
      val fresh = table.cells.map { case (r, c, v) => (r, c) -> v }.toMap

      def cell(k: (String, String)) = s"${f.id} row '${k._1}' column '${k._2}'"
      val problems =
        (committed.keySet -- fresh.keySet).toSeq.map(k => s"${cell(k)}: committed but no longer computed") ++
          (fresh.keySet -- committed.keySet).toSeq.map(k => s"${cell(k)}: computed but not committed") ++
          table.cells.collect {
            case (r, c, v) if !table.wallClock(c) && committed.get((r, c)).exists(old =>
                java.lang.Double.doubleToLongBits(old) != java.lang.Double.doubleToLongBits(v)) =>
              s"${cell((r, c))}: committed ${committed((r, c))}, now $v"
          }
      if (problems.nonEmpty)
        fail(s"${problems.size} cell(s) differ from $file:\n  " + problems.take(20).mkString("\n  ") +
          s"\nIf the change is intended, regenerate with ${Figures.Regenerate} and update EXPERIMENTS.md.")
    }
  }

  // Fig. 5a: adaptive query-aware partitioning on BW over time, with the
  // intra-urban -> inter-urban workload disturbance.
  private lazy val fig5a = Figures.fig5a.harness(spark)
  pin(Figures.fig5a, fig5a)

  test("Q-cut substantially reduces latency vs static Hash in phase 1") {
    assert(fig5a.maxReductionVsHash > 0.25,
      f"max reduction ${fig5a.maxReductionVsHash * 100}%.1f%% (paper: up to 49%%)")
  }

  test("Q-cut reduces latency vs static Domain in phase 1") {
    assert(fig5a.maxReductionVsDomain > 0.0,
      f"max reduction ${fig5a.maxReductionVsDomain * 100}%.1f%% (paper: up to 40%%)")
  }

  test("Q-cut latency improves over its own first batch (adaptation over time)") {
    val s = fig5a.batchSeries("Hash+Q-cut")
    val early = s.take(2).min
    val late = s.slice(fig5a.nBatchesPhase1 - 4, fig5a.nBatchesPhase1).min
    assert(late < early, s"late $late vs early $early")
  }

  test("during the disturbance phase Q-cut still beats static Hash in late batches") {
    val n = fig5a.batchSeries("Hash").size
    val lateFrom = fig5a.nBatchesPhase1 + (n - fig5a.nBatchesPhase1) / 2
    val red = fig5a.maxReduction("Hash", "Hash+Q-cut", lateFrom, n)
    assert(red > 0.0, f"late-disturbance reduction ${red * 100}%.1f%%")
  }

  // Fig. 5b: the adaptivity experiment on the larger GY graph. Workload
  // balancing matters relatively more than on BW (the "Berlin" straggler),
  // so static Hash fares comparatively better.
  private lazy val fig5b = Figures.fig5b.harness(spark)
  pin(Figures.fig5b, fig5b)

  test("Q-cut substantially reduces latency vs static Hash") {
    assert(fig5b.maxReductionVsHash > 0.2,
      f"max reduction ${fig5b.maxReductionVsHash * 100}%.1f%% (paper: up to 45%%)")
  }

  test("Q-cut reduces latency vs static Domain") {
    assert(fig5b.maxReductionVsDomain > 0.0,
      f"max reduction ${fig5b.maxReductionVsDomain * 100}%.1f%% (paper: up to 30%%)")
  }

  test("Hash is relatively stronger on GY than on BW (balancing matters more)") {
    // Paper: "for the larger GY graph, workload balancing is a more
    // important objective" — static Hash's disadvantage vs static Domain
    // shrinks on GY compared to BW.
    def hashOverDomain(r: Experiments.AdaptivityReport): Double = {
      val h = r.batchSeries("Hash").take(r.nBatchesPhase1)
      val d = r.batchSeries("Domain").take(r.nBatchesPhase1)
      h.sum / d.sum
    }
    assert(hashOverDomain(fig5b) < hashOverDomain(fig5a),
      "Hash/Domain latency ratio should be smaller on GY than on BW")
  }

  // Figs. 6a/6b/6c: summed query latency of the four strategies.
  private lazy val fig6abc = Figures.fig6abc.harness(spark)
  private lazy val (t6a, t6b, t6c) = fig6abc
  pin(Figures.fig6abc, fig6abc)

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

  // Fig. 6d: hybrid barrier synchronization vs traditional BSP-like global
  // barriers, on static Hash and static Domain (64 SSSP queries, BW, k=8).
  private lazy val fig6d = Figures.fig6d.harness(spark)
  pin(Figures.fig6d, fig6d)

  test("hybrid barrier reduces total latency on Hash (paper: 1.2-1.7x)") {
    assert(fig6d.speedupHybrid("Hash") > 1.05, f"${fig6d.speedupHybrid("Hash")}%.2fx")
  }

  test("hybrid barrier reduces total latency on Domain (paper: 1.2-1.7x)") {
    assert(fig6d.speedupHybrid("Domain") > 1.05, f"${fig6d.speedupHybrid("Domain")}%.2fx")
  }

  test("better partitioning (Domain) reduces latency under both barrier models (paper: 1.7-2.4x)") {
    assert(fig6d.domainOverHash("BSP-global") > 1.1, f"${fig6d.domainOverHash("BSP-global")}%.2fx")
    assert(fig6d.domainOverHash("hybrid") > 1.1, f"${fig6d.domainOverHash("hybrid")}%.2fx")
  }

  test("the hybrid gain is larger on the local-friendly Domain partitioning") {
    // Local barriers only pay off when queries actually run locally —
    // Domain has far more local iterations than Hash.
    assert(fig6d.speedupHybrid("Domain") >= fig6d.speedupHybrid("Hash") * 0.9)
  }

  // Figs. 6e/6f: workload imbalance and query locality of the four
  // strategies on BW SSSP. δ = 0.25 bounds Q-cut's imbalance, so it trades
  // a little of Domain's locality for balance.
  private lazy val fig6ef = Figures.fig6ef.harness(spark)
  pin(Figures.fig6ef, fig6ef)

  test("Fig 6e shape: Hash balanced, Domain imbalanced, Q-cut in between") {
    val h = fig6ef.steadyStateTail(fig6ef.imbalance, "Hash")
    val d = fig6ef.steadyStateTail(fig6ef.imbalance, "Domain")
    val q = fig6ef.steadyStateTail(fig6ef.imbalance, "Hash+Q-cut")
    assert(h < d, f"Hash $h%.2f must be below Domain $d%.2f")
    assert(q < d, f"Q-cut $q%.2f must stay below Domain $d%.2f (balance constraint)")
  }

  test("Fig 6f shape: Domain near-perfect locality, Hash low, Q-cut converges high") {
    val h = fig6ef.steadyStateTail(fig6ef.locality, "Hash")
    val d = fig6ef.steadyStateTail(fig6ef.locality, "Domain")
    val q = fig6ef.steadyStateTail(fig6ef.locality, "Hash+Q-cut")
    assert(d > 0.85, f"Domain locality $d%.2f (paper >95%%)")
    assert(h < 0.6, f"Hash locality $h%.2f (paper ~38%%)")
    assert(q > h + 0.2, f"Q-cut locality $q%.2f must clearly exceed Hash $h%.2f")
    assert(q < d + 0.01, "Q-cut trades a little locality for balance vs Domain")
  }

  test("locality of Hash+Q-cut increases over the intra-urban phase (convergence)") {
    val series = fig6ef.locality("Hash+Q-cut").take(fig6ef.nBatchesPhase1)
    assert(series.last > series.head, series.toString)
  }

  // Fig. 6g: convergence of the iterated local search on the controller,
  // first execution on the Hash-prepartitioned BW graph with the paper's 2 s
  // budget.
  private lazy val fig6g = Figures.fig6g.harness(spark)
  pin(Figures.fig6g, fig6g)

  test("ILS reduces the query-cut cost by a large fraction (paper: >75%)") {
    assert(fig6g.reduction > 0.5, f"reduction ${fig6g.reduction * 100}%.1f%%")
  }

  test("the run fits the 2s budget") {
    assert(fig6g.history.last.elapsedMs <= 2500, s"${fig6g.history.last.elapsedMs} ms")
  }

  test("best cost is non-increasing and perturbation rounds are recorded") {
    val costs = fig6g.history.map(_.bestCost)
    assert(costs.zip(costs.tail).forall { case (a, b) => b <= a })
    assert(fig6g.history.exists(_.afterPerturbation), "perturbations should occur within the budget")
  }

  // Fig. 7: scale-out behaviour — total latency for k = 2..16 workers under
  // the four strategies, SSSP and POI on BW. Hash stops scaling at k=16
  // (communication overhead); Domain's k=2 latency is high due to
  // stragglers.
  private val ks = Seq(2, 4, 8, 16)
  private lazy val fig7 = Figures.fig7.harness(spark)
  private lazy val (sssp, poi) = fig7
  pin(Figures.fig7, fig7)

  test("Hash stops scaling: k=16 is no better than k=8 (communication overhead)") {
    val s = sssp.series("Hash", ks)
    assert(s(2) < s(0), "k=8 must beat k=2")
    assert(s(3) > s(2) * 0.95, s"k=16 (${s(3)}) should not improve on k=8 (${s(2)})")
  }

  test("Q-cut on Hash beats static Hash at k=8 (paper: 474 -> 283 s)") {
    assert(sssp.totals(("Hash+Q-cut", 8)) < sssp.totals(("Hash", 8)))
  }

  test("Domain scales monotonically from k=2 to k=16 (paper: 1790 -> 562 s)") {
    val s = sssp.series("Domain", ks)
    assert(s.last < s.head, s.toString)
  }

  test("Domain suffers stragglers at low k: its k=2/k=16 ratio matches the paper's ~3.2x") {
    // Paper: Domain 1790 s at k=2 vs 562 s at k=16 — a 3.2x straggler
    // penalty at low worker counts. (The paper additionally has Domain k=2
    // above Hash k=2; at our scale a query frontier spans only a few
    // vertices, so Hash cannot parallelise within an iteration while still
    // paying every worker's per-iteration overhead, and that cross-system
    // ordering inverts — see EXPERIMENTS.md.)
    val ratio = sssp.totals(("Domain", 2)) / sssp.totals(("Domain", 16))
    assert(ratio > 2.0, f"Domain k2/k16 ratio $ratio%.2f (paper 3.2x)")
  }

  test("Q-cut improves Domain scaling (paper: 1150 -> 301 s)") {
    val s = sssp.series("Domain+Q-cut", ks)
    assert(s.last < s.head, s.toString)
    assert(sssp.totals(("Domain+Q-cut", 16)) <= sssp.totals(("Domain", 16)) * 1.05)
  }

  test("similar results for POI (paper: 'Similar results were obtained for POI')") {
    assert(poi.totals(("Hash+Q-cut", 8)) < poi.totals(("Hash", 8)))
    assert(poi.series("Domain", ks).last < poi.series("Domain", ks).head)
  }

  // Section 4.1's two baseline remarks: LDG [36] was excluded because the
  // skewed query workload left it "highly imbalanced", and GraphX-style
  // query-agnostic full-graph execution was far slower for the same problem
  // instance.
  private lazy val baselines = Figures.baselines.harness(spark)
  private lazy val (ldg, full) = baselines
  pin(Figures.baselines, baselines)

  test("LDG is heavily query-imbalanced vs Hash (the paper's exclusion reason)") {
    // Paper: "LDG resulted in highly imbalanced partitions due to the
    // skewness of the query distribution". Our LDG reproduces that: its
    // partitions are vertex-count balanced (capacity bound) but the hotspot
    // query load deviates many times more than under Hash.
    assert(ldg.ldgImbalance > 5 * ldg.hashImbalance,
      f"LDG ${ldg.ldgImbalance}%.2f vs Hash ${ldg.hashImbalance}%.2f")
  }

  test("LDG behaves as an (imbalanced) locality partitioner on the grid") {
    // The paper additionally reports a 2-6x latency blow-up vs its methods
    // on OSM data. On our uniform grid LDG's row-major stream yields
    // contiguous bands — near-Domain locality — so the latency factor does
    // not reproduce (documented in EXPERIMENTS.md); we pin the measured
    // behaviour instead: faster than Hash, imbalanced like Domain.
    assert(ldg.slowdown < 1.0, f"${ldg.slowdown}%.2fx vs Hash")
    assert(ldg.ldgImbalance > 0.3, f"query imbalance ${ldg.ldgImbalance}%.2f")
  }

  test("full-graph execution activates orders of magnitude more vertices") {
    assert(full.activationRatio > 50.0, f"${full.activationRatio}%.1fx")
  }

  test("full-graph execution is far slower in simulated latency") {
    assert(full.latencyRatio > 10.0, f"${full.latencyRatio}%.1fx")
  }

  test("every figure of Figures.all is pinned and gated here, in registry order") {
    assert(pinned.toSeq === Figures.all.map(_.id))
  }
}
