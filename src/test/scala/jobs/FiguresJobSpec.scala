package jobs

import org.scalatest.funsuite.AnyFunSuite

/** The job's argument check runs before any SparkSession is built. */
class FiguresJobSpec extends AnyFunSuite {

  private val known = repro.exp.Figures.all.map(_.id)

  test("an unknown figure id fails before a SparkSession is built and lists the known ids") {
    val e = intercept[IllegalArgumentException] {
      Figures.run(Seq("fig5a", "fig9"), fail("a SparkSession was built"))
    }
    assert(e.getMessage.contains("fig9"), e.getMessage)
    known.foreach(id => assert(e.getMessage.contains(id), e.getMessage))
  }

  test("no id at all fails the same way") {
    val e = intercept[IllegalArgumentException](Figures.run(Nil, fail("a SparkSession was built")))
    known.foreach(id => assert(e.getMessage.contains(id), e.getMessage))
  }

  test("ids select their figures in order; all selects every figure") {
    assert(Figures.select(Seq("fig7", "fig5a", "fig7")).map(_.id) === Seq("fig7", "fig5a"))
    assert(Figures.select(Seq("all")).map(_.id) === known)
    assert(known === Seq("fig5a", "fig5b", "fig6abc", "fig6d", "fig6ef", "fig6g", "fig7", "baselines"))
  }
}
