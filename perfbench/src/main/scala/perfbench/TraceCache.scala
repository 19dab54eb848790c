package perfbench

import java.io.File
import java.nio.file.Files
import java.security.MessageDigest
import org.apache.spark.sql.SparkSession
import repro.engine.BatchTrace
import repro.exp.{ExpScale, Traces}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** Guard around the on-disk trace cache of `repro.exp.Traces`.
  *
  * `Traces` silently recomputes a trace set whose file is missing or
  * unreadable, which would turn a warm run into a cold one of several
  * minutes. So the prepare step builds the cache once, outside all timing,
  * and records every cache file with its size and SHA-256 in a manifest.
  * A warm run then refuses to load when a file is missing or differs from
  * the manifest, and checks afterwards that the load created or rewrote no
  * file.
  */
object TraceCache {

  /** The trace sets of the warm workloads. */
  val kinds: Seq[String] = Seq("sssp", "sssp_inter", "poi")

  def dir: File = new File(sys.props.getOrElse("qgraph.trace.dir", "target/traces"))

  private def manifest: File = new File(dir, "perfbench-manifest.txt")

  def load(kind: String, spark: SparkSession, s: ExpScale): Vector[BatchTrace] = kind match {
    case "sssp"       => Traces.sssp(spark, s)
    case "sssp_inter" => Traces.ssspDisturbance(spark, s)
    case "poi"        => Traces.poi(spark, s)
  }

  /** Builds every warm trace set from scratch (the three engine workloads
    * run concurrently) and writes the manifest. Old cache files go first:
    * `Traces` would load a file left by an older program instead of
    * running the engine.
    */
  def prepare(spark: SparkSession, s: ExpScale): Map[String, Vector[BatchTrace]] = {
    implicit val ec: ExecutionContext = ExecutionContext.global
    manifest.delete()
    cacheFiles.foreach(_.delete())
    val built = kinds.map(k => k -> Future(load(k, spark, s)))
      .map { case (k, f) => k -> Await.result(f, Duration.Inf) }.toMap
    val lines = cacheFiles.map(f => s"${f.getName} ${f.length} ${sha256(f)}")
    Files.write(manifest.toPath, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
    built
  }

  private def cacheFiles: Seq[File] =
    Option(dir.listFiles()).toSeq.flatten.filter(f => f.isFile && f.getName.endsWith(".bin")).sortBy(_.getName)

  private def sha256(f: File): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val in = Files.newInputStream(f.toPath)
    try {
      val buf = new Array[Byte](1 << 16)
      var n = in.read(buf)
      while (n >= 0) { md.update(buf, 0, n); n = in.read(buf) }
    } finally in.close()
    md.digest().map(b => f"$b%02x").mkString
  }

  /** Verifies every manifest entry against the disk; aborts the run when
    * the cache was never prepared or a file is missing or changed. Returns
    * the summed size of the cache files.
    */
  def verifyBeforeLoad(): Long = {
    if (!manifest.isFile)
      throw new BenchAbort(s"trace cache not prepared: no manifest in $dir (a warm run never recomputes traces)")
    val entries = scala.io.Source.fromFile(manifest, "UTF-8").getLines().filter(_.nonEmpty).toVector
    if (entries.isEmpty) throw new BenchAbort(s"trace cache manifest in $dir is empty")
    entries.map { line =>
      val Array(name, size, sha) = line.split(' ')
      val f = new File(dir, name)
      if (!f.isFile) throw new BenchAbort(s"trace cache file $f is missing")
      if (f.length != size.toLong || sha256(f) != sha)
        throw new BenchAbort(s"trace cache file $f differs from the prepared one (stale or corrupt)")
      f.length
    }.sum
  }

  /** Name, size and modification time of every file in the cache. */
  def snapshot(): Map[String, (Long, Long)] =
    Option(dir.listFiles()).toSeq.flatten.map(f => f.getName -> (f.length, f.lastModified)).toMap

  /** Empties the in-process cache of `Traces` so that the next call reads
    * the disk again, as a fresh process would. The cache is private; every
    * clearable field of the object is emptied.
    */
  def dropProcessCache(): Unit = {
    val cleared = Traces.getClass.getDeclaredFields.count { f =>
      f.setAccessible(true)
      f.get(Traces) match {
        case c: scala.collection.mutable.Clearable => c.clear(); true
        case _                                     => false
      }
    }
    if (cleared == 0) throw new BenchAbort("found no in-process trace cache to empty in repro.exp.Traces")
  }
}
