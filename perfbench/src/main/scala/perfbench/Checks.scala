package perfbench

import scala.collection.mutable

/** Output checks of one run. Every check counts as attempted; a failing one
  * also counts as failed and is reported loudly on stderr.
  */
final class Checks {
  var attempted = 0L
  var failed = 0L
  val failures = mutable.ArrayBuffer.empty[String]

  def apply(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      val msg = what
      failures += msg
      Console.err.println(s"[perfbench] CHECK FAILED: $msg")
    }
  }
}

/** A condition under which the run cannot be measured at all. */
final class BenchAbort(msg: String) extends RuntimeException(msg)
