package repro.partition

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.sim.{IterationStats, Metrics}

class PartitionersSpec extends SparkSpec {
  private val g = TestFixtures.small
  private val k = 4

  private def balance(a: Array[Int]): Double = {
    val counts = a.groupBy(identity).values.map(_.length.toDouble)
    counts.max / (a.length.toDouble / counts.size)
  }

  test("hash covers all workers and is near-perfectly balanced") {
    val a = HashPartitioner.assign(g, k)
    assert(a.forall(w => w >= 0 && w < k))
    assert(a.distinct.sorted.toSeq === (0 until k))
    assert(balance(a) < 1.1, s"hash imbalance ${balance(a)}")
  }

  test("hash is deterministic") {
    assert(HashPartitioner.assign(g, k).toSeq === HashPartitioner.assign(g, k).toSeq)
  }

  test("domain assigns each Voronoi region wholly to one worker") {
    val a = DomainPartitioner.assign(g, k)
    val regionWorkers = (0 until g.numVertices).groupBy(g.cityOf).view.mapValues(_.map(a(_)).distinct)
    regionWorkers.foreach { case (city, ws) =>
      assert(ws.size === 1, s"city $city split across workers $ws")
    }
  }

  test("domain groups cities into contiguous longitude bands of equal count") {
    val cw = DomainPartitioner.cityWorker(g, 3)
    assert(cw.distinct.sorted === (0 until 3))
    // Cities sorted by x must map to non-decreasing workers (contiguity).
    val byX = g.cities.sortBy(c => (c.cx, c.cy, c.id)).map(c => cw(c.id))
    assert(byX === byX.sorted)
    // Band sizes differ by at most one.
    val sizes = cw.groupBy(identity).values.map(_.size)
    assert(sizes.max - sizes.min <= 1)
  }

  test("domain with k = nCities gives every hotspot its own worker") {
    val a = DomainPartitioner.assign(g, g.cities.size)
    val regionWorkers = (0 until g.numVertices).groupBy(g.cityOf).view.mapValues(v => a(v.head)).toMap
    assert(regionWorkers.values.toSeq.distinct.size === g.cities.size)
  }

  test("LDG respects its capacity bound") {
    val a = LdgPartitioner.assign(g, k)
    val cap = 1.1 * g.numVertices / k
    a.groupBy(identity).values.foreach(p => assert(p.length <= cap + 1))
  }

  test("LDG places every vertex") {
    val a = LdgPartitioner.assign(g, k)
    assert(a.length === g.numVertices)
    assert(a.forall(w => w >= 0 && w < k))
  }

  test("LDG co-locates neighbours better than hash (fewer cut edges)") {
    def cutEdges(a: Array[Int]): Int = g.edgeList.count { case (s, d, _) => a(s) != a(d) }
    assert(cutEdges(LdgPartitioner.assign(g, k)) < cutEdges(HashPartitioner.assign(g, k)))
  }

  test("domain locality beats hash locality on the hotspot workload (Fig 6f premise)") {
    val trace = TestFixtures.smallSsspTraces.head
    val hash = HashPartitioner.assign(g, k)
    val dom = DomainPartitioner.assign(g, k)
    val locHash = Metrics.avgQueryLocality(IterationStats.compute(trace, hash(_)))
    val locDom = Metrics.avgQueryLocality(IterationStats.compute(trace, dom(_)))
    assert(locDom > locHash, s"domain $locDom should beat hash $locHash")
    assert(locDom > 0.8, s"domain locality $locDom should be near-perfect")
  }

  test("hash workload balance beats domain balance (Fig 6e premise)") {
    val trace = TestFixtures.smallSsspTraces.head
    val hash = HashPartitioner.assign(g, k)
    val dom = DomainPartitioner.assign(g, k)
    val imbHash = Metrics.windowImbalance(Seq(Metrics.workerLoads(IterationStats.compute(trace, hash(_)), k)), k)
    val imbDom = Metrics.windowImbalance(Seq(Metrics.workerLoads(IterationStats.compute(trace, dom(_)), k)), k)
    assert(imbHash < imbDom, s"hash $imbHash should be more balanced than domain $imbDom")
  }

  test("assignmentDf mirrors the driver-side assignment (oracle-checked counts)") {
    import org.apache.spark.sql.functions._
    val a = HashPartitioner.assign(g, k)
    val df = Oracle.assignmentDf(spark, a)
    val counts = df.groupBy(col("worker")).agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      counts,
      "SELECT CAST(worker AS BIGINT) AS worker, COUNT(*) AS n FROM assignment GROUP BY worker",
      "assignment" -> df)
    df.collect().foreach(r => assert(a(r.getInt(0)) === r.getInt(1)))
  }

  test("partitioner names are stable (used in reports)") {
    assert(HashPartitioner.name === "Hash")
    assert(DomainPartitioner.name === "Domain")
    assert(LdgPartitioner.name === "LDG")
  }
}
