package repro.graph

import repro.{Oracle, SparkSpec, TestFixtures}

class RoadNetworkSpec extends SparkSpec {
  private lazy val g = TestFixtures.tiny

  test("vertex count is side^2") {
    assert(g.numVertices === g.side * g.side)
  }

  test("vid/coordinate round trip") {
    for (v <- Seq(0, 1, g.side, g.numVertices - 1)) {
      assert(g.vidOf(g.xOf(v), g.yOf(v)) === v)
    }
  }

  test("edge count matches the closed form 4*n - 4*side") {
    assert(g.edgeList.size === 4 * g.numVertices - 4 * g.side)
  }

  test("every edge connects 4-neighbours") {
    g.edgeList.foreach { case (s, d, _) =>
      val dist = math.abs(g.xOf(s) - g.xOf(d)) + math.abs(g.yOf(s) - g.yOf(d))
      assert(dist === 1, s"edge $s -> $d is not a grid neighbour")
    }
  }

  test("edges are symmetric with equal weight in both directions") {
    val set = g.edgeList.map { case (s, d, w) => (s, d) -> w }.toMap
    set.foreach { case ((s, d), w) =>
      assert(set.get((d, s)).contains(w), s"edge $s->$d missing reverse or weight differs")
    }
  }

  test("edge weights model travel time in [1, 1.5)") {
    g.edgeList.foreach { case (s, d, w) =>
      assert(w >= 1.0 && w < 1.5, s"weight $w of $s->$d out of range")
    }
  }

  test("generation is deterministic in the seed") {
    val a = TestFixtures.tinyNetwork(seed = 123)
    val b = TestFixtures.tinyNetwork(seed = 123)
    assert(a.cities === b.cities)
    assert(a.edgeList.toSeq === b.edgeList.toSeq)
    assert((0 until a.numVertices).map(a.isTagged) === (0 until b.numVertices).map(b.isTagged))
  }

  test("different seeds move the cities") {
    val a = TestFixtures.tinyNetwork(seed = 1)
    val b = TestFixtures.tinyNetwork(seed = 2)
    assert(a.cities.map(c => (c.cx, c.cy)) !== b.cities.map(c => (c.cx, c.cy)))
  }

  test("city population shares are normalised and rank-ordered (Zipf)") {
    assert(math.abs(g.cities.map(_.popShare).sum - 1.0) < 1e-9)
    g.cities.sliding(2).foreach {
      case Seq(a, b) => assert(a.popShare >= b.popShare)
      case _         => ()
    }
    assert(g.cities.head.popShare > 1.0 / g.cities.size, "head city must be over-proportional")
  }

  test("cities respect the minimum separation") {
    val minSep = math.max(2.0, g.side / (math.sqrt(g.cities.size.toDouble) * 1.7))
    for (a <- g.cities; b <- g.cities if a.id < b.id) {
      val d = math.hypot((a.cx - b.cx).toDouble, (a.cy - b.cy).toDouble)
      assert(d >= minSep, s"cities ${a.id} and ${b.id} are too close ($d < $minSep)")
    }
  }

  test("cityOf assigns each city centre to itself") {
    g.cities.foreach(c => assert(g.cityOf(g.vidOf(c.cx, c.cy)) === c.id))
  }

  test("every city owns a nonempty Voronoi region") {
    val regions = (0 until g.numVertices).groupBy(g.cityOf)
    assert(regions.keySet === g.cities.indices.toSet)
  }

  test("tag rate is plausible (~n/tagRate tagged vertices)") {
    val tagged = (0 until g.numVertices).count(g.isTagged)
    val expected = g.numVertices.toDouble / g.tagRate
    assert(tagged > expected * 0.3 && tagged < expected * 3.0,
      s"$tagged tagged vs expected ~$expected")
  }

  test("adjacency agrees with the edge list") {
    val fromAdj = (0 until g.numVertices).flatMap(v => g.adjacency(v).map { case (u, w) => (v, u, w) }).toSet
    assert(fromAdj === g.edgeList.toSet)
  }

  test("verticesDf matches driver-side structure") {
    val rows = Oracle.verticesDf(spark, g).collect()
    assert(rows.length === g.numVertices)
    rows.foreach { r =>
      val vid = r.getInt(0)
      assert(r.getInt(1) === g.xOf(vid))
      assert(r.getInt(2) === g.yOf(vid))
      assert(r.getInt(3) === g.cityOf(vid))
      assert(r.getBoolean(4) === g.isTagged(vid))
    }
  }

  test("edgesDf matches the driver-side edge list") {
    val rows = g.edgesDf(spark).collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2))).toSet
    assert(rows === g.edgeList.toSet)
  }

  test("oracle: per-vertex out-degree via DuckDB") {
    import org.apache.spark.sql.functions._
    val e = g.edgesDf(spark)
    val degrees = e.groupBy(col("src")).agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(
      degrees,
      "SELECT CAST(src AS BIGINT) AS src, COUNT(*) AS deg FROM edges GROUP BY src",
      "edges" -> e)
  }

  test("oracle: city region sizes via DuckDB") {
    import org.apache.spark.sql.functions._
    val v = Oracle.verticesDf(spark, g)
    val sizes = v.groupBy(col("city")).agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sizes,
      "SELECT CAST(city AS BIGINT) AS city, COUNT(*) AS n FROM vertices GROUP BY city",
      "vertices" -> v)
  }

  test("bwLite and gyLite have the documented shapes") {
    val bw = RoadNetwork.bwLite
    assert(bw.side === 110 && bw.cities.size === 16)
    val gy = RoadNetwork.gyLite
    assert(gy.side === 200 && gy.cities.size === 64)
  }

  test("structureHash fingerprints the generator parameters") {
    val a = TestFixtures.tinyNetwork(seed = 1)
    val b = TestFixtures.tinyNetwork(seed = 1)
    val c = TestFixtures.tinyNetwork(seed = 2)
    assert(a.structureHash === b.structureHash)
    assert(a.structureHash !== c.structureHash)
    val steeper = RoadNetwork.generate("tiny-16", 16, 4, 25, seed = 1, zipfAlpha = 1.3)
    assert(steeper.structureHash !== a.structureHash, "population law must be fingerprinted")
  }

  test("generate rejects invalid parameters") {
    intercept[IllegalArgumentException](RoadNetwork.generate("bad", 2, 1, 10, 0))
    intercept[IllegalArgumentException](RoadNetwork.generate("bad", 10, 0, 10, 0))
  }
}
