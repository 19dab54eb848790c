package repro.exp

/** A reproduced figure as data: named rows of named numeric cells. Cells in
  * a `wallClock` column are wall-clock measurements and differ from run to
  * run; every other cell is a deterministic function of the code, and the
  * committed `figures/<id>.tsv` pins it bit for bit (`GoldenFigureSpec`).
  * Latencies are simulated seconds; the paper's are testbed seconds, so only
  * ratios are comparable (EXPERIMENTS.md).
  */
final case class FigureTable(rows: Vector[FigureTable.Row], wallClock: Set[String] = Set.empty) {
  import FigureTable._

  /** Every cell as (row, column, value), in table order. */
  def cells: Vector[(String, String, Double)] =
    for (r <- rows; (c, v) <- r.cells) yield (r.name, c, v)

  require(cells.map(c => (c._1, c._2)).distinct.size == cells.size, "duplicate (row, column) cell")
  require(cells.forall(c => !s"${c._1}${c._2}".exists(ch => ch == '\t' || ch == '\n')),
    "row and column names must not hold tabs or newlines")

  /** One line per cell: row, column and `java.lang.Double.toString` of the
    * value, tab-separated; `parseTsv` reads the same bits back.
    */
  def tsv: String =
    cells.map { case (r, c, v) => s"$r\t$c\t${java.lang.Double.toString(v)}\n" }.mkString

  /** Plain-text grid: consecutive rows with the same columns share a header. */
  def render: String = {
    val groups = rows.foldLeft(Vector.empty[Vector[Row]]) { (gs, r) =>
      if (gs.nonEmpty && gs.last.head.columns == r.columns) gs.init :+ (gs.last :+ r) else gs :+ Vector(r)
    }
    val nameWidth = rows.map(_.name.length).max
    groups.map { g =>
      val fields = g.map(_.cells.map(c => format(c._2)))
      val widths = g.head.columns.indices.map(i => (g.head.columns(i).length +: fields.map(_(i).length)).max)
      def line(name: String, fs: Seq[String]) = "  " + name.padTo(nameWidth, ' ') +
        fs.zip(widths).map { case (f, w) => " " * (w - f.length + 2) + f }.mkString
      (line("", g.head.columns) +: g.zip(fields).map { case (r, fs) => line(r.name, fs) }).mkString("\n")
    }.mkString("", "\n", "\n")
  }
}

object FigureTable {
  final case class Row(name: String, cells: Vector[(String, Double)]) {
    def columns: Vector[String] = cells.map(_._1)
  }

  /** A whole number as an integer, anything else to four decimals. */
  def format(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else f"$v%.4f"

  /** The cells of a `tsv` text, keyed by (row, column). */
  def parseTsv(text: String): Map[(String, String), Double] =
    text.linesIterator.filter(_.nonEmpty).map { l =>
      l.split("\t", -1) match {
        case Array(r, c, v) => (r, c) -> java.lang.Double.parseDouble(v)
        case _ => throw new IllegalArgumentException(s"not a row<TAB>column<TAB>value line: '$l'")
      }
    }.toMap
}
