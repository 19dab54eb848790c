package perfbench

import java.nio.file.{Files, Paths}
import repro.exp.ExpScale

/** Benchmark JVM entry point, launched by `perfbench/run.py`:
  *
  * {{{
  * perfbench.Main prepare --out FILE
  * perfbench.Main run --workload NAME --seed N --seconds S --trace 0|1 --out FILE
  * }}}
  *
  * `prepare` builds the warm workloads' trace cache (outside all timing);
  * `run` measures one workload and writes its report as JSON to FILE. Exit
  * code 3 means the run could not be measured (e.g. the trace cache is
  * missing or stale).
  */
object Main {

  val workloads: Map[String, (BenchArgs, Report, Checks, Tracer) => Unit] = Map(
    "engine-cold" -> Workloads.engineCold,
    "replay-matrix" -> Workloads.replayMatrix,
    "adaptive-qcut" -> Workloads.adaptiveQcut)

  def main(argv: Array[String]): Unit = {
    val opts = argv.drop(1).grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val out = Paths.get(opts("out"))
    val code =
      try {
        argv.headOption match {
          case Some("prepare") =>
            val (spark, _) = Probes.startSpark()
            val built = TraceCache.prepare(spark, ExpScale.bw)
            val rep = new Report
            for ((k, ts) <- built.toSeq.sortBy(_._1)) rep.traceDigests(k) = Digests.traces(ts)
            Files.write(out, rep.toJson("prepare", 0, traced = false, new Checks).getBytes("UTF-8"))
            Probes.stopSpark(spark)
          case Some("run") =>
            val a = BenchArgs(opts("workload"), opts("seed").toLong, opts("seconds").toDouble, opts("trace") == "1")
            val body = workloads.getOrElse(a.workload, throw new BenchAbort(s"unknown workload ${a.workload}"))
            val rep = new Report
            val checks = new Checks
            val tr = new Tracer(a.traced)
            val origin = System.nanoTime()
            body(a, rep, checks, tr)
            rep.e2e("rss_peak_mb") = (Probes.rssPeakMb, "MB")
            Files.write(out, rep.toJson(a.workload, a.seed, a.traced, checks).getBytes("UTF-8"))
            if (a.traced) Files.write(Paths.get(s"$out.spans.json"), tr.toJson(origin).getBytes("UTF-8"))
          case other => throw new BenchAbort(s"unknown mode $other")
        }
        0
      } catch {
        case e: BenchAbort =>
          Console.err.println(s"[perfbench] ABORT: ${e.getMessage}")
          3
      }
    sys.exit(code)
  }
}
