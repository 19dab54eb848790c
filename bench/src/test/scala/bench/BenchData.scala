package bench

import repro.SparkSpec
import repro.exp._

/** Shared, lazily computed bench artefacts. All bench suites run in one JVM
  * (`Test / parallelExecution := false`), so the expensive engine traces and
  * run matrices are built once and reused across figures — legitimate
  * because traces are partition-invariant (see DESIGN.md).
  */
object BenchData {
  def spark = SparkSpec.shared

  lazy val bw: ExpScale = ExpScale.bw
  lazy val gy: ExpScale = ExpScale.gy

  /** Fig 5a + 6a + 6e/6f source: the BW adaptivity matrix with disturbance. */
  lazy val bwAdaptivity: Experiments.AdaptivityReport = Experiments.adaptivity(spark, bw)

  /** Fig 5b + 6b source: the GY adaptivity matrix (intra-urban phase). */
  lazy val gyAdaptivity: Experiments.AdaptivityReport = Experiments.adaptivity(spark, gy)

  /** Fig 6c source: POI totals on BW. */
  lazy val bwPoiFourWay: Experiments.FourWay =
    Experiments.fourWay(bw.network, Traces.poi(spark, bw), bw.k)
}
