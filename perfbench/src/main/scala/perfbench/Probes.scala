package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Counts the Spark jobs, tasks and executor run time of one session. */
final class SparkCounters extends SparkListener {
  @volatile var jobs = 0L
  @volatile var tasks = 0L
  @volatile var executorRunMs = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    if (e.taskMetrics != null) executorRunMs += e.taskMetrics.executorRunTime
  }

  /** Snapshot after every event posted so far has been delivered. */
  def snapshot(sc: SparkContext): (Long, Long, Double) = {
    org.apache.spark.PerfbenchListenerBus.drain(sc)
    (jobs, tasks, executorRunMs / 1000.0)
  }
}

/** Process-level facts and counters reported beside every result. */
object Probes {

  /** The session every workload uses: the same settings as the repository's
    * job entry points (`local[*]`, 64 shuffle partitions, no automatic
    * broadcast joins), plus a listener that counts Spark work.
    */
  def startSpark(): (SparkSession, SparkCounters) = {
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    (spark, counters)
  }

  def stopSpark(spark: SparkSession): Unit = {
    spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  /** Peak resident set size of this process (`VmHWM`), in MiB. */
  def rssPeakMb: Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try src.getLines().collectFirst {
      case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0
    }.getOrElse(Double.NaN)
    finally src.close()
  }

  /** Summed collection time of every garbage collector, in seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum / 1000.0

  def host(spark: SparkSession): Map[String, Any] = scala.collection.immutable.ListMap(
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "spark_master" -> spark.sparkContext.master,
    "spark_version" -> spark.version,
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}")

  def seconds(fromNs: Long): Double = (System.nanoTime() - fromNs) / 1e9

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, seconds(t0))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}
