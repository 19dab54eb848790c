package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.engine._
import repro.exp.{ExpScale, Experiments}
import repro.graph.{Dijkstra, RoadNetwork}
import repro.partition._
import repro.sync.BarrierMode
import repro.workload.QueryWorkload
import scala.collection.mutable

final case class BenchArgs(workload: String, seed: Long, seconds: Double, traced: Boolean)

/** One timed unit of a measured pass. */
final case class Timed[A](name: String, value: A, seconds: Double)

/** The three workloads. Each one sets up several times (the median is
  * `setup_s`), then repeats its measured pass until `--seconds` have
  * passed (see [[Workloads.measure]] for `run_s`). A traced run adds one
  * traced pass between two untraced ones; the per-layer metrics come from
  * it.
  *
  * Only `engine-cold` draws its inputs from the seed. The warm workloads
  * replay the fixed prepared BW-lite traces (new traces per seed would cost
  * minutes of engine time per run) in a fixed order: the order in which
  * configurations first run steers the JIT, and a seed-dependent order made
  * pass times differ by a third between seeds. So every seed repeats the
  * same measurement and checks against the same reference.
  */
object Workloads {

  /** Set-ups per run; the first one also pays class loading. */
  val SetupReps = 3

  /** ILS round cap of `adaptive-qcut`. The wall-clock budget is lifted so
    * the search does the same work on every run: with the default 700 ms
    * budget a faster ILS would change the simulated totals instead of the
    * wall-clock, and the outputs would not be reproducible.
    */
  val IlsRoundCap = 3

  final class Session(val spark: SparkSession, val counters: SparkCounters)

  /** Runs `setup` `SetupReps` times, each on a fresh SparkSession; returns
    * the last set-up and records the median as `setup_s`.
    */
  private def repeatSetup[A](rep: Report, tr: Tracer)(setup: Session => A): (Session, A) = {
    var last: Option[(Session, A)] = None
    val times = (0 until SetupReps).map { _ =>
      last.foreach { case (s, _) => Probes.stopSpark(s.spark) }
      val t0 = System.nanoTime()
      val (spark, counters) = tr.span("spark", "spark.start") { Probes.startSpark() }
      val session = new Session(spark, counters)
      last = Some(session -> setup(session))
      Probes.seconds(t0)
    }
    rep.e2e("setup_s") = (Probes.median(times), "s")
    rep.info("setup_s_each") = times
    last.get
  }

  /** Untraced passes for about `seconds` (at least one); in a traced
    * run, one untraced pass, the traced pass and another untraced pass.
    * A pass is a sequence of named units (a batch, a configuration);
    * `run_s` sums, over units, the unit's median time across untraced
    * passes, which damps the host's pass-to-pass noise better than the
    * median of whole passes. A traced run also records the tracing
    * overhead: the traced pass without the benchmark's own spans, minus
    * the untraced pass that follows it (both on a warmed-up JIT).
    * Returns every pass, traced pass last.
    */
  private def measure[A](a: BenchArgs, rep: Report, tr: Tracer)(pass: Tracer => Seq[Timed[A]]): Seq[Seq[Timed[A]]] = {
    // A full collection first, so that what set-up left alive (the loaded
    // traces above all) sits in the old generation instead of being copied
    // between survivor spaces during the measured passes.
    System.gc()
    val off = new Tracer(false)
    val untracedPasses = mutable.ArrayBuffer.empty[Seq[Timed[A]]]
    def untraced(): Unit = untracedPasses += pass(off)
    val gc0 = Probes.gcSeconds
    var traced: Option[Seq[Timed[A]]] = None
    if (!a.traced) {
      // Another pass starts only if it should end within `seconds`, so a
      // pass just shorter than the budget does not add a warmer second
      // pass to some runs and not to others.
      val t0 = System.nanoTime()
      untraced()
      while (Probes.seconds(t0) + untracedPasses.last.map(_.seconds).sum <= a.seconds) untraced()
    } else {
      untraced()
      val firstSpan = tr.spans.length
      val gcBefore = Probes.gcSeconds
      val (r, s) = Probes.timed(pass(tr))
      rep.set("jvm.gc_s", Probes.gcSeconds - gcBefore)
      untraced()
      val benchOnly = tr.spans.iterator.drop(firstSpan).filter(_.layer == "bench").map(_.seconds).sum
      rep.set("trace.run_s", s - benchOnly)
      rep.set("trace.overhead_s", s - benchOnly - untracedPasses.last.map(_.seconds).sum)
      traced = Some(r)
    }
    val units = untracedPasses.head.map(_.name)
    rep.e2e("run_s") = (units.map(u => Probes.median(untracedPasses.toSeq.map(_.find(_.name == u).get.seconds))).sum, "s")
    rep.info("pass_s") = untracedPasses.map(_.map(_.seconds).sum).toSeq
    rep.info("gc_s_measured") = Probes.gcSeconds - gc0
    untracedPasses.toSeq ++ traced
  }

  /** Runs one unit of a pass and times it. */
  private def unit[A](name: String)(body: => A): Timed[A] = {
    val (v, s) = Probes.timed(body)
    Timed(name, v, s)
  }

  private def finishTrace(rep: Report, tr: Tracer): Unit = if (tr.enabled) {
    for ((layer, s) <- tr.selfTimes) rep.set(s"self_s.$layer", s)
    rep.set("trace.spans", tr.spans.length)
  }

  // ---------------------------------------------------------------- engine-cold

  /** Fresh 16-query batches straight through `BspEngine.runBatch`, no trace
    * cache: two of intra-urban SSSP (compact A* corridors) and one of POI
    * (balls without a heuristic). Every answer is checked against Dijkstra.
    */
  def engineCold(a: BenchArgs, rep: Report, checks: Checks, tr: Tracer): Unit = {
    val (session, (g, batches, edges)) = repeatSetup(rep, tr) { session =>
      val g = tr.span("graph", "graph.generate") { RoadNetwork.bwLite }
      val batches = tr.span("workload", "workload.generate") {
        val intra = QueryWorkload.generate(g, 32, QueryKind.Sssp, batchSize = 16, seed = a.seed)
        val poi = QueryWorkload.generate(g, 16, QueryKind.Poi, batchSize = 16, seed = a.seed + 2000, qidOffset = 32)
        intra.groupBy(_.batch).toSeq.sortBy(_._1).map("sssp_intra" -> _._2) ++
          poi.groupBy(_.batch).toSeq.sortBy(_._1).map("poi" -> _._2)
      }
      val edges: DataFrame = tr.span("engine", "engine.prepare_edges") { BspEngine.prepareEdges(session.spark, g) }
      (g, batches, edges)
    }
    val spark = session.spark
    rep.info("host") = Probes.host(spark)
    // One single-query batch, untimed: Spark's first plan compilations and
    // the JIT's first pass over the engine loop otherwise add several
    // seconds, varying from run to run, to the first measured batch.
    tr.span("bench", "bench.engine_warm_up") {
      BspEngine.runBatch(spark, edges, g.isTagged,
        QueryWorkload.generate(g, 1, QueryKind.Sssp, batchSize = 1, seed = a.seed + 4000),
        maxIter = 3000, astarSide = Some(g.side))
    }

    val (jobs0, tasks0, exec0) = session.counters.snapshot(spark.sparkContext)
    var countersBeforeTraced = (0L, 0L, 0.0)
    val passes = measure(a, rep, tr) { ptr =>
      if (ptr.enabled) countersBeforeTraced = session.counters.snapshot(spark.sparkContext)
      val out = batches.map { case (kind, qs) =>
        unit(s"$kind/${qs.head.batch}") {
          ptr.span("engine", s"engine.run_batch.$kind") {
            BspEngine.runBatch(spark, edges, g.isTagged, qs, maxIter = 3000, astarSide = Some(g.side))
          }
        }
      }
      if (ptr.enabled) {
        val (j1, t1, e1) = session.counters.snapshot(spark.sparkContext)
        val (j0, t0, e0) = countersBeforeTraced
        rep.set("engine.spark_jobs", (j1 - j0).toDouble)
        rep.set("engine.spark_tasks", (t1 - t0).toDouble)
        rep.set("engine.executor_run_s", e1 - e0)
      }
      out
    }
    val (jobs1, tasks1, exec1) = session.counters.snapshot(spark.sparkContext)
    rep.info("spark_counters_all_passes") = Map("jobs" -> (jobs1 - jobs0), "tasks" -> (tasks1 - tasks0),
      "executor_run_s" -> (exec1 - exec0))

    // Output checks, outside all timing: every answer against Dijkstra, and
    // every pass must produce the first pass's traces.
    val adj = tr.span("graph", "graph.oracle_adjacency") { g.adjacency }
    for (b <- passes.head; t = b.value; q <- t.queries) {
      val r = t.results(q.qid)
      q.kind match {
        case QueryKind.Sssp =>
          val expected = tr.span("graph", "graph.oracle") { Dijkstra.shortestPath(adj, q.start, q.end) }
          checks(r.found == expected.isDefined &&
            expected.forall(d => math.abs(r.dist - d) < 1e-9) && r.target == q.end,
            s"${b.name} query ${q.qid}: engine (${r.found}, ${r.dist}, ${r.target}) vs Dijkstra $expected")
        case QueryKind.Poi =>
          val expected = tr.span("graph", "graph.oracle") { Dijkstra.nearestTagged(adj, q.start, g.isTagged) }
          checks(r.found == expected.isDefined &&
            expected.forall { case (v, d) => math.abs(r.dist - d) < 1e-9 && r.target == v },
            s"${b.name} query ${q.qid}: engine (${r.found}, ${r.dist}, ${r.target}) vs Dijkstra $expected")
      }
    }
    def digests(p: Seq[Timed[BatchTrace]]) = p.map(b => b.name -> Digests.traces(Seq(b.value)))
    val firstDigests = digests(passes.head)
    for (p <- passes.tail) checks(digests(p) == firstDigests, "engine traces differ between passes of one run")
    for ((name, d) <- firstDigests) rep.traceDigests(name) = d

    val last = passes.last
    if (a.traced) {
      for (b <- last) rep.add(s"engine.batch_s.${b.name.takeWhile(_ != '/')}", b.seconds)
      val iters = last.map(_.value.iterations).sum
      val acts = last.map(_.value.activations.size.toLong).sum
      val msgs = last.map(_.value.messages.size.toLong).sum
      rep.set("engine.bsp_iters", iters)
      rep.set("engine.s_per_bsp_iter", last.map(_.seconds).sum / iters)
      rep.set("engine.activations", acts.toDouble)
      rep.set("engine.messages", msgs.toDouble)
      rep.set("engine.acts_per_msg", acts.toDouble / msgs)
      rep.set("graph.generate_s", tr.total("graph.generate") / SetupReps)
      rep.set("workload.generate_s", tr.total("workload.generate") / SetupReps)
      rep.set("engine.prepare_edges_s", tr.total("engine.prepare_edges") / SetupReps)
    }
    rep.info("bsp_iters") = last.map(b => b.name -> b.value.iterations).toMap
    finishTrace(rep, tr)
    Probes.stopSpark(spark)
  }

  // ---------------------------------------------------------------- warm workloads

  /** Set-up of a warm workload: session, network, and a load of the
    * prepared trace sets from disk, guarded against a stale or missing
    * cache. Returns the scale and the loaded traces by kind.
    */
  private def warmSetup(kinds: Seq[String], rep: Report, checks: Checks, tr: Tracer)
      : (Session, ExpScale, Map[String, Vector[BatchTrace]]) = {
    val bytes = TraceCache.verifyBeforeLoad()
    val (session, (s, traces)) = repeatSetup(rep, tr) { session =>
      val s = tr.span("graph", "graph.generate") { ExpScale.bw }
      TraceCache.dropProcessCache()
      val before = TraceCache.snapshot()
      val traces = kinds.map(k => k -> tr.span("traces", s"traces.load.$k") {
        TraceCache.load(k, session.spark, s)
      }).toMap
      val after = TraceCache.snapshot()
      checks(before == after,
        s"trace cache was rewritten while loading (missing or unreadable file recomputed): ${(before.toSet -- after.toSet) ++ (after.toSet -- before.toSet)}")
      (s, traces)
    }
    rep.info("host") = Probes.host(session.spark)
    for (k <- kinds) rep.traceDigests(k) = Digests.traces(traces(k))
    if (tr.enabled) {
      rep.set("graph.generate_s", tr.total("graph.generate") / SetupReps)
      rep.set("traces.load_s", kinds.map(k => tr.total(s"traces.load.$k")).sum / SetupReps)
      rep.set("traces.bytes", bytes.toDouble)
    }
    (session, s, traces)
  }

  /** Checks that every pass of a run gave the first pass's outputs, and,
    * in a traced run, that the traced loop (last pass) equals
    * `QGraphRunner.run`.
    */
  private def checkPasses(passes: Seq[Seq[Timed[RunOutputs]]], traced: Boolean, checks: Checks): Unit = {
    val first = passes.head.map(u => u.name -> u.value).toMap
    for ((p, i) <- passes.zipWithIndex.tail; Timed(name, out, _) <- p) {
      val what = if (traced && i == passes.size - 1) "traced loop" else s"pass ${i + 1}"
      checks(first.get(name).contains(out),
        s"$name: $what differs from QGraphRunner.run " +
          s"(digest ${Digests.latencies(out.latencies)} vs ${first.get(name).map(o => Digests.latencies(o.latencies))}, " +
          s"repartitions ${out.repartitionBatches} vs ${first.get(name).map(_.repartitionBatches)})")
    }
  }

  private def simMetrics(rep: Report, tr: Tracer, counts: LayerCounts): Unit = {
    rep.set("sim.stats_s", tr.total("sim.stats"))
    for (m <- Seq("hybrid", "per_query", "lockstep")) rep.set(s"sim.simulate_s.$m", tr.total(s"sim.simulate.$m"))
    rep.set("sim.query_iters", counts.queryIters.toDouble)
    val simS = tr.total("sim.stats") + Seq("hybrid", "per_query", "lockstep").map(m => tr.total(s"sim.simulate.$m")).sum
    rep.set("sim.query_iters_per_s", counts.queryIters / simS)
    rep.set("core.observe_s", tr.total("core.observe"))
  }

  /** The intra-urban SSSP batches followed by the first disturbance
    * batch: compact corridors plus one batch of long inter-city scopes,
    * which alone holds about as many activations as all 16 intra batches.
    */
  private def ssspWithDisturbance(traces: Map[String, Vector[BatchTrace]]): Vector[BatchTrace] =
    traces("sssp") ++ traces("sssp_inter").take(1)

  /** Static replay: {Hash, Domain, LDG} x {hybrid, per-query-global,
    * BSP-global} x k in {2, 8} through `QGraphRunner.run` on the SSSP
    * batches, plus the POI batches at k = 2, with the controller only
    * observing. The matrix is trimmed from the paper's k in {2, 4, 8, 16}
    * and the 24 SSSP batches so that one pass takes a few seconds.
    */
  def replayMatrix(a: BenchArgs, rep: Report, checks: Checks, tr: Tracer): Unit = {
    val (session, s, traces) = warmSetup(Seq("sssp", "sssp_inter", "poi"), rep, checks, tr)
    val traceSets = Seq("sssp" -> ssspWithDisturbance(traces), "poi" -> traces("poi"))
    val partitioners = Seq[GraphPartitioner](HashPartitioner, DomainPartitioner, LdgPartitioner)
    val modes = Seq(BarrierMode.Hybrid, BarrierMode.PerQueryGlobal, BarrierMode.SharedGlobal)
    val groups = for (p <- partitioners; k <- Seq(2, 8)) yield (p, k)
    val counts = new LayerCounts
    val passes = measure(a, rep, tr) { ptr =>
      for {
        (p, k) <- groups
        assign = ptr.span("partition", s"partition.assign.${p.name.toLowerCase}") { p.assign(s.network, k) }
        (setName, ts) <- traceSets
        if setName == "sssp" || k == 2
        mode <- modes
      } yield {
        val name = s"$setName/${p.name}/${mode.name}/k=$k"
        val cfg = RunConfig(name, k, mode)
        unit(name) {
          if (ptr.enabled) TracedRunner.run(assign, ts, cfg, ptr, counts)
          else RunOutputs.of(QGraphRunner.run(assign, ts, cfg))
        }
      }
    }
    checkPasses(passes, a.traced, checks)
    for (u <- passes.head.sortBy(_.name)) rep.output(u.name, u.value)
    if (a.traced) {
      for (p <- partitioners) {
        val n = p.name.toLowerCase
        rep.set(s"partition.assign_s.$n", tr.total(s"partition.assign.$n"))
      }
      simMetrics(rep, tr, counts)
    }
    finishTrace(rep, tr)
    Probes.stopSpark(session.spark)
  }

  /** Adaptive Q-cut at k = 8: Hash+Q-cut (locality-triggered repartitions)
    * and Domain+Q-cut (imbalance trigger and the rebalance path) with the
    * bench controller settings and a round-capped ILS, over the same
    * batches as the replay matrix.
    */
  def adaptiveQcut(a: BenchArgs, rep: Report, checks: Checks, tr: Tracer): Unit = {
    val (session, s, traces) = warmSetup(Seq("sssp", "sssp_inter"), rep, checks, tr)
    val ts = ssspWithDisturbance(traces)
    val base = Experiments.controllerConfig(ilsBudgetMs = Long.MaxValue)
    val ctrl = base.copy(ils = base.ils.copy(maxRounds = IlsRoundCap))
    val k = 8
    val starts = Seq[GraphPartitioner](HashPartitioner, DomainPartitioner)
    val counts = new LayerCounts
    val passes = measure(a, rep, tr) { ptr =>
      starts.map { p =>
        val assign = ptr.span("partition", s"partition.assign.${p.name.toLowerCase}") { p.assign(s.network, k) }
        val name = s"${p.name}+Q-cut/hybrid/k=$k"
        val cfg = RunConfig(name, k, BarrierMode.Hybrid, adaptive = true, ctrl = ctrl)
        unit(name) {
          if (ptr.enabled) TracedRunner.run(assign, ts, cfg, ptr, counts)
          else RunOutputs.of(QGraphRunner.run(assign, ts, cfg))
        }
      }
    }
    checkPasses(passes, a.traced, checks)
    for (u <- passes.head.sortBy(_.name)) rep.output(u.name, u.value)
    if (a.traced) {
      for (p <- starts) {
        val n = p.name.toLowerCase
        rep.set(s"partition.assign_s.$n", tr.total(s"partition.assign.$n"))
      }
      simMetrics(rep, tr, counts)
      rep.set("core.repartition_s", tr.total("core.repartition"))
      rep.set("core.triggers", counts.triggers.toDouble)
      rep.set("core.enacted", counts.enacted.toDouble)
      rep.set("core.enacted_ratio", if (counts.triggers == 0) 0.0 else counts.enacted.toDouble / counts.triggers)
      rep.set("core.moved_vertices", counts.movedVertices.toDouble)
      for (st <- Seq("atoms", "karger", "state_build", "rebalance", "optimize"))
        rep.set(s"qcut.${st}_s", tr.total(s"qcut.$st"))
      rep.set("qcut.atoms", counts.atoms.toDouble)
      rep.set("qcut.clusters", counts.clusters.toDouble)
      rep.set("qcut.first_descent_s", tr.total("bench.first_descent"))
      rep.set("qcut.first_descent_steps", counts.firstDescentSteps.toDouble)
      rep.set("qcut.ils_rounds", counts.ilsRounds.toDouble)
      rep.set("qcut.improving_ratio",
        if (counts.perturbations == 0) 0.0 else counts.improvingPerturbations.toDouble / counts.perturbations)
      rep.set("qcut.cost_reduction",
        if (counts.ilsInitialCost == 0) 0.0 else 1.0 - counts.ilsBestCost.toDouble / counts.ilsInitialCost)
    }
    finishTrace(rep, tr)
    Probes.stopSpark(session.spark)
  }

}
