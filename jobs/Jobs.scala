package jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Fig 5a: adaptive Q-cut on BW with the workload disturbance. */
object Fig5a {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("qgraph-fig5a")
    try {
      val rep = Experiments.adaptivity(spark, ExpScale.bw)
      println(Reports.adaptivity(rep, "Fig 5a",
        "Q-cut -49% vs static Hash, -40% vs static Domain (phase 1)"))
    } finally spark.stop()
  }
}

/** Fig 5b: the adaptivity experiment on the larger GY graph. */
object Fig5b {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("qgraph-fig5b")
    try {
      val rep = Experiments.adaptivity(spark, ExpScale.gy)
      println(Reports.adaptivity(rep, "Fig 5b",
        "Q-cut -45% vs static Hash, -30% vs static Domain"))
    } finally spark.stop()
  }
}

/** Figs 6a/6b/6c: summed latency per strategy. */
object Fig6abc {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("qgraph-fig6abc")
    try {
      val bw = Experiments.adaptivity(spark, ExpScale.bw)
      println(Reports.totals(bw.phase1Totals("BW / SSSP (Fig 6a)"), "Fig 6a", "-43% vs Hash, -22% vs Domain"))
      val gy = Experiments.adaptivity(spark, ExpScale.gy)
      println(Reports.totals(gy.phase1Totals("GY / SSSP (Fig 6b)"), "Fig 6b", "-13% vs Hash, -25% vs Domain"))
      val poi = Experiments.fourWay(ExpScale.bw.network,
        Traces.poi(spark, ExpScale.bw), ExpScale.bw.k)
      println(Reports.totals(Experiments.totals("BW / POI (Fig 6c)", poi),
        "Fig 6c", "-50% vs Hash, -28% vs Domain"))
    } finally spark.stop()
  }
}

/** Fig 6d: hybrid vs BSP-global barrier synchronization. */
object Fig6d {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("qgraph-fig6d")
    try println(Reports.barrier(Experiments.barrierComparison(spark, ExpScale.bw, nQueries = 64)))
    finally spark.stop()
  }
}

/** Figs 6e/6f: workload imbalance and query locality series. */
object Fig6ef {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("qgraph-fig6ef")
    try {
      val rep = Experiments.adaptivity(spark, ExpScale.bw)
      println(Reports.quality(Experiments.quality(rep.fourWay)))
    } finally spark.stop()
  }
}

/** Fig 6g: ILS convergence on the controller. */
object Fig6g {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("qgraph-fig6g")
    try println(Reports.ils(Experiments.ilsConvergence(spark, ExpScale.bw)))
    finally spark.stop()
  }
}

/** Fig 7: scalability over k = 2..16, SSSP and POI. */
object Fig7 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("qgraph-fig7")
    try {
      val ks = Seq(2, 4, 8, 16)
      println(Reports.scalability(Experiments.scalability(spark, ExpScale.bw, ks), ks, "SSSP"))
      println(Reports.scalability(Experiments.scalability(spark, ExpScale.bw, ks, poi = true), ks, "POI"))
    } finally spark.stop()
  }
}

/** Section 4.1 baselines: LDG exclusion and the GraphX-style remark. */
object Baselines {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("qgraph-baselines")
    try {
      println(Reports.ldg(Experiments.ldgComparison(spark, ExpScale.bw)))
      println(Reports.fullGraph(Experiments.fullGraphBaseline(spark, ExpScale.bw, nQueries = 4)))
    } finally spark.stop()
  }
}
