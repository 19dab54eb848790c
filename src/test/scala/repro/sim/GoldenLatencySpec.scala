package repro.sim

import java.security.MessageDigest
import repro.{SparkSpec, TestFixtures}
import repro.core.{QGraphRunner, RunConfig, RunResult}
import repro.engine.BatchTrace
import repro.partition.{DomainPartitioner, HashPartitioner}
import repro.sync.BarrierMode

/** Pins the simulated latencies bit for bit: a simulator or runner change
  * must reproduce every per-query latency of the small workloads under Hash
  * and Domain, in every barrier mode, at k = 2, 4 and 8, because every
  * simulated figure derives from them. A second digest pins the per-batch
  * metrics of the same runs (locality, imbalance and worker loads), which
  * the Fig. 6e/6f cells and the controller's triggers derive from.
  */
class GoldenLatencySpec extends SparkSpec {
  import TestFixtures._

  /** The 18 runs of a workload: Hash and Domain × every barrier mode × k. */
  private def runs(traces: Seq[BatchTrace]): Seq[RunResult] =
    for {
      p <- Seq(HashPartitioner, DomainPartitioner)
      mode <- Seq(BarrierMode.Hybrid, BarrierMode.PerQueryGlobal, BarrierMode.SharedGlobal)
      k <- Seq(2, 4, 8)
    } yield QGraphRunner.run(p.assign(small, k), traces, RunConfig(s"${p.name}/${mode.name}/k=$k", k, mode))

  private lazy val ssspRuns = runs(smallSsspTraces)
  private lazy val poiRuns = runs(smallPoiTraces)

  private def bits(d: Double): Long = java.lang.Double.doubleToLongBits(d)

  /** SHA-256 prefix of the lines `line` writes for every run. */
  private def digest(rs: Seq[RunResult])(line: RunResult => Seq[String]): String = {
    val sb = new StringBuilder
    for (r <- rs) {
      sb ++= s"${r.cfg.name}\n"
      line(r).foreach(l => sb ++= s"$l\n")
    }
    MessageDigest.getInstance("SHA-256").digest(sb.result().getBytes("UTF-8"))
      .take(12).map(b => f"$b%02x").mkString
  }

  /** The bits of every per-query latency, in qid order. */
  private def latencies(rs: Seq[RunResult]): String =
    digest(rs)(_.queryLatencies.toSeq.sortBy(_._1).map { case (q, l) => s"$q,${bits(l)}" })

  /** Per batch: the bits of locality and imbalance, then the worker loads
    * in worker order.
    */
  private def batchMetrics(rs: Seq[RunResult]): String =
    digest(rs)(r => r.batches.map { b =>
      val loads = (0 until r.cfg.k).map(b.loadByWorker(_))
      s"${b.batchId},${bits(b.locality)},${bits(b.imbalance)},${loads.mkString(",")}"
    })

  test("golden digest: simulated latencies of the small SSSP workload") {
    assert(latencies(ssspRuns) === "49f793f54987e2d85fcd398d")
  }

  test("golden digest: simulated latencies of the small POI workload") {
    assert(latencies(poiRuns) === "44dead1eecba05591ee718db")
  }

  test("golden digest: per-batch locality, imbalance and worker loads of the small SSSP workload") {
    assert(batchMetrics(ssspRuns) === "9bd0a5a2efdaf873feef1c15")
  }

  test("golden digest: per-batch locality, imbalance and worker loads of the small POI workload") {
    assert(batchMetrics(poiRuns) === "c3c12e92d2e04a013a8be41e")
  }
}
