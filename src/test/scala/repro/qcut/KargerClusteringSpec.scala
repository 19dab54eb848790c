package repro.qcut

import org.scalatest.funsuite.AnyFunSuite
import repro.TestFixtures.{overlapMap, overlaps => overlapsOf}
import scala.util.Random

class KargerClusteringSpec extends AnyFunSuite {

  test("overlapsFromAtoms counts shared vertices per query pair") {
    val atoms = Vector(
      Atom(Vector(1, 2), 0, Array(0, 1, 2)),
      Atom(Vector(1, 2, 3), 1, Array(3)),
      Atom(Vector(2), 0, Array(4)))
    val o = overlapMap(KargerClustering.overlapsFromAtoms(atoms))
    assert(o((1, 2)) === 4L) // 3 + 1
    assert(o((1, 3)) === 1L)
    assert(o((2, 3)) === 1L)
  }

  test("clustering reaches the target count on a connected overlap graph") {
    val qids = (0 until 8).toVector
    val overlaps = (0 until 7).map(i => (i, i + 1) -> 10L).toMap
    val c = KargerClustering.cluster(qids, overlapsOf(qids, overlaps), target = 3, new Random(1))
    assert(c.length === 8)
    assert(c.distinct.length === 3)
  }

  test("clusters are contiguous in the overlap graph (only overlapping queries merge)") {
    val qids = (0 until 6).toVector
    // Two separate triangles: {0,1,2} and {3,4,5}.
    val overlaps = Map((0, 1) -> 5L, (1, 2) -> 5L, (0, 2) -> 5L,
      (3, 4) -> 5L, (4, 5) -> 5L, (3, 5) -> 5L)
    val c = KargerClustering.cluster(qids, overlapsOf(qids, overlaps), target = 2, new Random(2))
    assert(c.distinct.length === 2)
    assert(Set(c(0), c(1), c(2)).size === 1)
    assert(Set(c(3), c(4), c(5)).size === 1)
    assert(c(0) !== c(3))
  }

  test("disconnected queries cannot be merged below the component count") {
    val qids = (0 until 4).toVector
    val overlaps = Map((0, 1) -> 1L) // components: {0,1}, {2}, {3}
    val c = KargerClustering.cluster(qids, overlapsOf(qids, overlaps), target = 1, new Random(3))
    assert(c.distinct.length === 3)
  }

  test("target >= nQueries leaves everything separate") {
    val qids = (0 until 5).toVector
    val overlaps = Map((0, 1) -> 3L)
    val c = KargerClustering.cluster(qids, overlapsOf(qids, overlaps), target = 5, new Random(4))
    assert(c.distinct.length === 5)
  }

  test("deterministic for a fixed seed") {
    val qids = (0 until 10).toVector
    val overlaps = (for (i <- 0 until 10; j <- (i + 1) until 10 if (i + j) % 3 == 0)
      yield (i, j) -> ((i + j + 1).toLong)).toMap
    val a = KargerClustering.cluster(qids, overlapsOf(qids, overlaps), 4, new Random(9))
    val b = KargerClustering.cluster(qids, overlapsOf(qids, overlaps), 4, new Random(9))
    assert(a.toSeq === b.toSeq)
  }

  test("identityClusters") {
    assert(KargerClustering.identityClusters(4).toSeq === Seq(0, 1, 2, 3))
  }

  test("cluster ids are compact (0 until C)") {
    val qids = (0 until 8).toVector
    val overlaps = (0 until 7).map(i => (i, i + 1) -> 1L).toMap
    val c = KargerClustering.cluster(qids, overlapsOf(qids, overlaps), 3, new Random(5))
    assert(c.distinct.sorted.toSeq === (0 until c.distinct.length))
  }

  test("overlaps need ascending query ids and weights above the diagonal only") {
    val below = new Array[Long](4); below(2) = 1L // indices (1, 0)
    assert(intercept[IllegalArgumentException](new KargerClustering.Overlaps(Vector(3, 7), below))
      .getMessage.contains("above the diagonal"))
    assert(intercept[IllegalArgumentException](new KargerClustering.Overlaps(Vector(7, 3), new Array[Long](4)))
      .getMessage.contains("ascending"))
  }
}
