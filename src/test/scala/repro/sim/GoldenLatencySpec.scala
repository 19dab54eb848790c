package repro.sim

import java.security.MessageDigest
import repro.{SparkSpec, TestFixtures}
import repro.core.{QGraphRunner, RunConfig}
import repro.engine.BatchTrace
import repro.partition.{DomainPartitioner, HashPartitioner}
import repro.sync.BarrierMode

/** Pins the simulated latencies bit for bit: a simulator or runner change
  * must reproduce every per-query latency of the small workloads under Hash
  * and Domain, in every barrier mode, at k = 2, 4 and 8, because every
  * simulated figure derives from them.
  */
class GoldenLatencySpec extends SparkSpec {
  import TestFixtures._

  /** SHA-256 prefix over the bits of every per-query latency, in qid order. */
  private def digest(traces: Seq[BatchTrace]): String = {
    val sb = new StringBuilder
    for {
      p <- Seq(HashPartitioner, DomainPartitioner)
      mode <- Seq(BarrierMode.Hybrid, BarrierMode.PerQueryGlobal, BarrierMode.SharedGlobal)
      k <- Seq(2, 4, 8)
    } {
      val r = QGraphRunner.run(p.assign(small, k), traces, RunConfig(s"${p.name}/${mode.name}/k=$k", k, mode))
      sb ++= s"${r.cfg.name}\n"
      r.queryLatencies.toSeq.sortBy(_._1).foreach { case (q, l) =>
        sb ++= s"$q,${java.lang.Double.doubleToLongBits(l)}\n"
      }
    }
    MessageDigest.getInstance("SHA-256").digest(sb.result().getBytes("UTF-8"))
      .take(12).map(b => f"$b%02x").mkString
  }

  test("golden digest: simulated latencies of the small SSSP workload") {
    assert(digest(smallSsspTraces) === "49f793f54987e2d85fcd398d")
  }

  test("golden digest: simulated latencies of the small POI workload") {
    assert(digest(smallPoiTraces) === "44dead1eecba05591ee718db")
  }
}
