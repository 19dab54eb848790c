package jobs

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.exp.{Figures => Registry}

/** `jobs.Figures <id...|all>`: computes the named figures of
  * `repro.exp.Figures`, prints each table and rewrites `figures/<id>.tsv`.
  */
object Figures {
  def main(args: Array[String]): Unit = run(args.toSeq,
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("qgraph-figures")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate())

  /** The figures that `args` names; `all` names every one. Fails on a
    * missing or unknown id, listing the known ones.
    */
  def select(args: Seq[String]): Seq[Registry.Figure[_]] = {
    val known = Registry.all.map(_.id)
    val unknown = args.filterNot(a => a == "all" || known.contains(a))
    require(args.nonEmpty && unknown.isEmpty,
      s"usage: jobs.Figures <id...|all>, known ids: ${known.mkString(" ")}" +
        (if (unknown.isEmpty) "" else s"; unknown: ${unknown.mkString(" ")}"))
    if (args.contains("all")) Registry.all else args.distinct.map(a => Registry.all.find(_.id == a).get)
  }

  /** Checks `args` before `session` is built, then computes every figure. */
  def run(args: Seq[String], session: => SparkSession): Unit = {
    val figures = select(args)
    val spark = session
    try figures.foreach { f =>
      val t = f.compute(spark)
      println(f.render(t))
      val out = Registry.tsvFile(f.id)
      out.getParentFile.mkdirs()
      Files.write(out.toPath, t.tsv.getBytes(UTF_8))
    } finally spark.stop()
  }
}
