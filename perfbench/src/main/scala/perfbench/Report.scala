package perfbench

import scala.collection.mutable

/** Everything one run reports. `run.py` prints the end-to-end metrics
  * (untraced run) or the per-layer metrics (traced run), compares
  * `outputs` and `traceDigests` with the reference files, and keeps the
  * whole report as JSON.
  */
final class Report {
  val e2e = mutable.LinkedHashMap.empty[String, (Double, String)]
  val layer = mutable.LinkedHashMap.from(Report.perLayer.map { case (n, u) => n -> (0.0, u) })
  /** Per configuration: headline simulated total and the latency digest. */
  val outputs = mutable.LinkedHashMap.empty[String, Map[String, Any]]
  val traceDigests = mutable.LinkedHashMap.empty[String, Map[String, Any]]
  val info = mutable.LinkedHashMap.empty[String, Any]

  def set(name: String, value: Double): Unit = {
    val (_, unit) = layer.getOrElse(name, throw new IllegalArgumentException(s"unknown per-layer metric $name"))
    layer(name) = (value, unit)
  }

  def add(name: String, value: Double): Unit = set(name, layer(name)._1 + value)

  def output(config: String, o: RunOutputs): Unit = outputs(config) = Map(
    "total_sim_s" -> o.latencies.toSeq.sortBy(_._1).map(_._2).sum,
    "latency_digest" -> Digests.latencies(o.latencies),
    "repartitions" -> o.repartitionBatches.size,
    "moved_vertices" -> o.moved.sum)

  def toJson(workload: String, seed: Long, traced: Boolean, checks: Checks): String = {
    def metrics(m: collection.Map[String, (Double, String)]) =
      m.map { case (n, (v, u)) => n -> Map("value" -> v, "unit" -> u) }
    Json.obj(Seq(
      "workload" -> workload, "seed" -> seed, "trace" -> traced,
      "attempted" -> checks.attempted, "failed" -> checks.failed, "failures" -> checks.failures.toSeq,
      "end_to_end" -> metrics(e2e), "per_layer" -> (if (traced) metrics(layer) else Map.empty),
      "outputs" -> outputs, "trace_digests" -> traceDigests, "info" -> info))
  }
}

object Report {
  /** Every per-layer metric a traced run reports, with its unit. A layer a
    * workload does not exercise reports 0.
    */
  val perLayer: Seq[(String, String)] = Seq(
    "engine.batch_s.sssp_intra" -> "s", "engine.batch_s.poi" -> "s",
    "engine.bsp_iters" -> "count", "engine.s_per_bsp_iter" -> "s",
    "engine.activations" -> "count", "engine.messages" -> "count", "engine.acts_per_msg" -> "ratio",
    "engine.spark_jobs" -> "count", "engine.spark_tasks" -> "count", "engine.executor_run_s" -> "s",
    "engine.prepare_edges_s" -> "s", "graph.generate_s" -> "s", "workload.generate_s" -> "s",
    "traces.load_s" -> "s", "traces.bytes" -> "bytes",
    "partition.assign_s.hash" -> "s", "partition.assign_s.domain" -> "s", "partition.assign_s.ldg" -> "s",
    "sim.stats_s" -> "s", "sim.query_iters" -> "count",
    "sim.simulate_s.hybrid" -> "s", "sim.simulate_s.per_query" -> "s", "sim.simulate_s.lockstep" -> "s",
    "sim.query_iters_per_s" -> "1/s",
    "core.observe_s" -> "s", "core.repartition_s" -> "s", "core.triggers" -> "count",
    "core.enacted" -> "count", "core.enacted_ratio" -> "ratio", "core.moved_vertices" -> "count",
    "qcut.atoms_s" -> "s", "qcut.atoms" -> "count", "qcut.karger_s" -> "s", "qcut.clusters" -> "count",
    "qcut.state_build_s" -> "s", "qcut.rebalance_s" -> "s",
    "qcut.first_descent_s" -> "s", "qcut.first_descent_steps" -> "count",
    "qcut.optimize_s" -> "s", "qcut.ils_rounds" -> "count",
    "qcut.improving_ratio" -> "ratio", "qcut.cost_reduction" -> "ratio",
    "jvm.gc_s" -> "s") ++
    Seq("spark", "graph", "workload", "engine", "traces", "partition", "sim", "core", "qcut", "bench")
      .map(l => s"self_s.$l" -> "s") ++
    Seq("trace.run_s" -> "s", "trace.overhead_s" -> "s", "trace.spans" -> "count")
}
