package repro.engine

import java.security.MessageDigest
import repro.{SparkSpec, TestFixtures}
import repro.exp.ExpScale
import repro.workload.QueryWorkload

/** Pins the exact content of engine traces: an engine change must
  * reproduce the recorded activations, messages and results bit for bit,
  * in the same order, because cached traces and every simulated figure
  * derive from them.
  */
class GoldenTraceSpec extends SparkSpec {
  import TestFixtures._

  /** SHA-256 prefix over every activation, message and result, in trace order. */
  private def digest(traces: Seq[BatchTrace]): String = {
    val sb = new StringBuilder
    for (t <- traces) {
      sb ++= s"B${t.batchId}/${t.iterations}\n"
      t.activations.foreach(a => sb ++= s"A${a.qid},${a.iter},${a.vid}\n")
      t.messages.foreach(m => sb ++= s"M${m.qid},${m.iter},${m.src},${m.dst}\n")
      t.results.toSeq.sortBy(_._1).foreach { case (_, r) =>
        sb ++= s"R${r.qid},${r.found},${java.lang.Double.doubleToLongBits(r.dist)},${r.target},${r.iterations}\n"
      }
    }
    MessageDigest.getInstance("SHA-256").digest(sb.result().getBytes("UTF-8"))
      .take(12).map(b => f"$b%02x").mkString
  }

  test("golden digest: small SSSP workload traces") {
    assert(digest(smallSsspTraces) === "4529e7bf61c22d3df264aa06")
  }

  test("golden digest: small POI workload traces") {
    assert(digest(smallPoiTraces) === "0bf0572ce1de99476a395910")
  }

  test("golden digest: one unpruned batch on small") {
    val batch = smallSsspQueries.filter(_.batch == 0)
    val t = BspEngine.runBatch(spark, smallEdges, small.isTagged, batch, maxIter = 800, pruned = false)
    assert(digest(Seq(t)) === "a1225f5532c6aebd65ebfb79")
  }

  // BW-lite batches as the trace cache generates them (`repro.exp.Traces`).
  private lazy val bw = ExpScale.bw
  private lazy val bwEdges = BspEngine.prepareEdges(spark, bw.network)
  private def firstBatch(workload: Seq[Query]): BatchTrace = {
    val g = bw.network // the tag predicate travels to the executor: capture the network, not this suite
    BspEngine.runBatch(spark, bwEdges, g.isTagged, workload.filter(_.batch == workload.head.batch),
      bw.maxIter, astarSide = Some(g.side))
  }

  test("golden digest: BW-lite intra-urban SSSP batch 0") {
    val qs = QueryWorkload.generate(bw.network, bw.nQueries, QueryKind.Sssp, batchSize = bw.batchSize, seed = bw.seed)
    assert(digest(Seq(firstBatch(qs))) === "dc458163ed06d8e5c37fc048")
  }

  test("golden digest: BW-lite first disturbance batch") {
    val qs = QueryWorkload.generate(bw.network, bw.nDisturb, QueryKind.Sssp, batchSize = bw.batchSize,
      interUrban = true, seed = bw.seed + 1000, qidOffset = bw.nQueries, batchOffset = bw.nQueries / bw.batchSize)
    assert(digest(Seq(firstBatch(qs))) === "6456bee0e6c02f601768f592")
  }

  test("golden digest: BW-lite POI batch 0") {
    val qs = QueryWorkload.generate(bw.network, bw.nQueries, QueryKind.Poi, batchSize = bw.batchSize,
      seed = bw.seed + 2000)
    assert(digest(Seq(firstBatch(qs))) === "d44bd907468329f345439173")
  }
}
