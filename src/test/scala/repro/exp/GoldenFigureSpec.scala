package repro.exp

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import repro.SparkSpec

/** Every figure recomputed at bench scale must equal its committed
  * `figures/<id>.tsv` bit for bit, except wall-clock cells. A change that
  * moves a figure number updates `figures/` and EXPERIMENTS.md with it.
  */
class GoldenFigureSpec extends SparkSpec {

  for (f <- Figures.all) test(s"${f.id} equals the committed ${Figures.tsvFile(f.id)}") {
    val file = Figures.tsvFile(f.id)
    assert(file.isFile, s"missing ${file.getAbsolutePath}; write it with ${Figures.Regenerate}")
    val committed = FigureTable.parseTsv(new String(Files.readAllBytes(file.toPath), UTF_8))
    val table = f.compute(spark)
    val fresh = table.cells.map { case (r, c, v) => (r, c) -> v }.toMap

    def cell(k: (String, String)) = s"${f.id} row '${k._1}' column '${k._2}'"
    val problems =
      (committed.keySet -- fresh.keySet).toSeq.map(k => s"${cell(k)}: committed but no longer computed") ++
        (fresh.keySet -- committed.keySet).toSeq.map(k => s"${cell(k)}: computed but not committed") ++
        table.cells.collect {
          case (r, c, v) if !table.wallClock(c) && committed.get((r, c)).exists(old =>
              java.lang.Double.doubleToLongBits(old) != java.lang.Double.doubleToLongBits(v)) =>
            s"${cell((r, c))}: committed ${committed((r, c))}, now $v"
        }
    if (problems.nonEmpty)
      fail(s"${problems.size} cell(s) differ from $file:\n  " + problems.take(20).mkString("\n  ") +
        s"\nIf the change is intended, regenerate with ${Figures.Regenerate} and update EXPERIMENTS.md.")
  }
}
