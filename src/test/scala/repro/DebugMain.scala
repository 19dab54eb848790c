package repro

import repro.exp._
import repro.sim.{IterationStats, Metrics}

/** Diagnostic: per-batch latency/locality/imbalance series at tiny scale;
  * no test runs it. Run with `sbt "Test/runMain repro.DebugMain"`.
  */
object DebugMain {
  def main(args: Array[String]): Unit = {
    val spark = SparkSpec.shared
    val s = ExpScale.tiny
    val rep = Experiments.adaptivity(spark, s)
    println("=== per-batch avgLatency (ms, simulated) ===")
    for ((name, series) <- rep.batchSeries.toSeq.sortBy(_._1)) {
      println(f"$name%-14s " + series.map(v => f"${v * 1000}%8.2f").mkString(" "))
    }
    println("=== per-batch locality ===")
    for ((name, r) <- rep.fourWay.all) {
      println(f"$name%-14s " + r.batches.map(b => f"${b.locality}%6.2f").mkString(" "))
    }
    println("=== per-batch imbalance ===")
    for ((name, r) <- rep.fourWay.all) {
      println(f"$name%-14s " + r.batches.map(b => f"${b.imbalance}%6.2f").mkString(" "))
    }
    println("=== repartitions/moved ===")
    for ((name, r) <- rep.fourWay.all) {
      println(f"$name%-14s " + r.batches.map(b => s"${if (b.repartitioned) "R" else "."}${b.movedVertices}").mkString(" "))
    }
    println("=== totals ===")
    for ((name, r) <- rep.fourWay.all) println(f"$name%-14s ${r.totalLatency}%10.4f")
    spark.stop()
  }
}
