package perfbench

import scala.collection.mutable

/** One timed call into a layer. `parent` is the index of the enclosing
  * span in [[Tracer.spans]], or -1 for a root span.
  */
final case class Span(id: Int, parent: Int, layer: String, name: String, startNs: Long, var endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Span recorder for the traced run. Spans are appended in start order and
  * kept in memory; [[Tracer.toJson]] writes them out once the run ends.
  * A disabled tracer runs the body with no bookkeeping at all, so the
  * untraced run pays nothing for the instrumentation.
  */
final class Tracer(val enabled: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var current = -1

  def span[A](layer: String, name: String)(body: => A): A =
    if (!enabled) body
    else {
      val s = Span(spans.length, current, layer, name, System.nanoTime(), 0L)
      spans += s
      val saved = current
      current = s.id
      try body
      finally {
        s.endNs = System.nanoTime()
        current = saved
      }
    }

  /** Summed duration of every span with this name. */
  def total(name: String): Double = spans.iterator.filter(_.name == name).map(_.seconds).sum

  /** Per-layer self time: each span's duration minus the part covered by
    * its direct children, summed by layer.
    */
  def selfTimes: Map[String, Double] = {
    val childNs = Array.fill(spans.length)(0L)
    for (s <- spans if s.parent >= 0) childNs(s.parent) += s.endNs - s.startNs
    spans.groupMapReduce(_.layer)(s => (s.endNs - s.startNs - childNs(s.id)) / 1e9)(_ + _)
  }

  def toJson(originNs: Long): String =
    spans.iterator.map { s =>
      Json.obj(Seq(
        "id" -> s.id, "parent" -> s.parent, "layer" -> s.layer, "name" -> s.name,
        "start_s" -> (s.startNs - originNs) / 1e9, "end_s" -> (s.endNs - originNs) / 1e9))
    }.mkString("[\n", ",\n", "\n]\n")
}

/** Minimal JSON writer for the result and span files. */
object Json {
  def value(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float             => value(f.toDouble)
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: collection.Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x })
    case xs: Iterable[_]      => xs.map(value).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${quote(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
