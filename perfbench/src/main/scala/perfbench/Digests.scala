package perfbench

import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.engine.{BatchTrace, QueryKind}

/** Content digests that the reference files pin down. */
object Digests {

  private final class Hasher {
    private val md = MessageDigest.getInstance("SHA-256")
    private val buf = ByteBuffer.allocate(1 << 16)
    private def room(n: Int): Unit = if (buf.remaining < n) flush()
    private def flush(): Unit = { md.update(buf.array, 0, buf.position()); buf.clear() }
    def int(x: Int): Unit = { room(4); buf.putInt(x) }
    def long(x: Long): Unit = { room(8); buf.putLong(x) }
    def double(x: Double): Unit = long(java.lang.Double.doubleToLongBits(x))
    def hex: String = { flush(); md.digest().take(16).map(b => f"$b%02x").mkString }
  }

  /** Batch, activation and message counts of a trace set plus a hash of its
    * content: queries, iteration counts, activations, messages and results,
    * in the order the engine emitted them.
    */
  def traces(ts: Seq[BatchTrace]): Map[String, Any] = {
    val h = new Hasher
    for (t <- ts) {
      h.int(t.batchId); h.int(t.iterations)
      for (q <- t.queries) {
        h.int(q.qid); h.int(if (q.kind == QueryKind.Sssp) 0 else 1)
        h.int(q.start); h.int(q.end); h.int(q.city); h.int(q.batch)
      }
      for (a <- t.activations) { h.int(a.qid); h.int(a.iter); h.int(a.vid) }
      for (m <- t.messages) { h.int(m.qid); h.int(m.iter); h.int(m.src); h.int(m.dst) }
      for (r <- t.results.values.toSeq.sortBy(_.qid)) {
        h.int(r.qid); h.int(if (r.found) 1 else 0); h.double(r.dist); h.int(r.target); h.int(r.iterations)
      }
    }
    Map(
      "batches" -> ts.size,
      "activations" -> ts.iterator.map(_.activations.size.toLong).sum,
      "messages" -> ts.iterator.map(_.messages.size.toLong).sum,
      "content" -> h.hex)
  }

  /** Hash of every per-query simulated latency, bit for bit, by qid. */
  def latencies(byQid: Map[Int, Double]): String = {
    val h = new Hasher
    for ((q, l) <- byQid.toSeq.sortBy(_._1)) { h.int(q); h.double(l) }
    h.hex
  }
}
