package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A city (query hotspot) on the synthetic road network.
  *
  * @param id       city index, 0 = most populous (cities are rank-ordered)
  * @param cx       grid x-coordinate of the city centre
  * @param cy       grid y-coordinate of the city centre
  * @param popShare fraction of the total population living in this city;
  *                 drives the per-city query volume (Section 4.1 of the paper
  *                 keeps "the number of queries per city proportional to their
  *                 populations")
  */
final case class City(id: Int, cx: Int, cy: Int, popShare: Double)

/** Deterministic synthetic road network standing in for the paper's
  * OpenStreetMap graphs (Germany / Baden-Wuerttemberg).
  *
  * The graph is a `side x side` grid of junctions with bidirectional road
  * segments between 4-neighbours. Edge weights model travel time (length /
  * speed limit in the paper): a base cost of 1 plus deterministic per-road
  * noise. `nCities` hotspots are placed with minimum separation; their
  * populations follow a Zipf-like law so that query volume is skewed (the
  * paper's "Berlin" effect). Every vertex belongs to the Voronoi region of
  * its nearest city (used by the Domain expert partitioner and the workload
  * generator). POI tags are assigned with probability `1/tagRate`
  * (the paper uses 1/12500 at full scale; we scale the rate with the graph).
  *
  * All structure is a pure function of the constructor arguments, so the
  * driver-side adjacency (used by the reference Dijkstra and the streaming
  * LDG partitioner) and the Spark DataFrames are guaranteed consistent.
  */
final case class RoadNetwork(
    name: String,
    side: Int,
    cities: IndexedSeq[City],
    tagRate: Int,
    seed: Long) {

  /** Number of vertices (junctions). */
  val numVertices: Int = side * side

  /** Grid coordinate helpers. */
  @inline def vidOf(x: Int, y: Int): Int = y * side + x
  @inline def xOf(vid: Int): Int = vid % side
  @inline def yOf(vid: Int): Int = vid / side

  @inline private def unit(h: Long): Double = (h >>> 11).toDouble / (1L << 53).toDouble

  /** Travel time of the directed road segment src -> dst (same in both
    * directions, like a physical road): 1 + noise in [0, 0.5).
    */
  def edgeWeight(src: Int, dst: Int): Double = {
    val a = math.min(src, dst).toLong
    val b = math.max(src, dst).toLong
    1.0 + 0.5 * unit(RoadNetwork.mix64(a * numVertices + b ^ (seed * 0x5851f42dL)))
  }

  /** True if the vertex carries the POI tag (e.g. "gas station"). */
  def isTagged(vid: Int): Boolean =
    java.lang.Long.remainderUnsigned(RoadNetwork.mix64(vid.toLong ^ (seed * 0x2545f491L)), tagRate.toLong) == 0L

  /** Index of the nearest city (Voronoi region) for a vertex. */
  def cityOf(vid: Int): Int = {
    val x = xOf(vid); val y = yOf(vid)
    var best = 0; var bestD = Double.MaxValue; var i = 0
    while (i < cities.length) {
      val c = cities(i)
      val dx = (x - c.cx).toDouble; val dy = (y - c.cy).toDouble
      val d = dx * dx + dy * dy
      if (d < bestD) { bestD = d; best = i }
      i += 1
    }
    best
  }

  /** Out-neighbours of a vertex on the grid (2..4 of them). */
  def neighbors(vid: Int): Array[Int] = {
    val x = xOf(vid); val y = yOf(vid)
    val buf = new scala.collection.mutable.ArrayBuffer[Int](4)
    if (x > 0) buf += vid - 1
    if (x < side - 1) buf += vid + 1
    if (y > 0) buf += vid - side
    if (y < side - 1) buf += vid + side
    buf.toArray
  }

  /** Structural fingerprint of the generated network (side, seed, tag rate,
    * city layout and populations) — used to key persisted trace caches so a
    * generator change invalidates them.
    */
  lazy val structureHash: String = {
    val h = java.security.MessageDigest.getInstance("MD5")
    h.update(s"$side/$seed/$tagRate".getBytes)
    cities.foreach(c => h.update(s"${c.id},${c.cx},${c.cy},${c.popShare}".getBytes))
    h.digest().take(6).map(b => f"$b%02x").mkString
  }

  /** Driver-side adjacency with weights; `adjacency(v)` lists `(dst, w)`.
    * Used by the reference Dijkstra oracle and by streaming partitioners.
    */
  lazy val adjacency: Array[Array[(Int, Double)]] =
    Array.tabulate(numVertices)(v => neighbors(v).map(u => (u, edgeWeight(v, u))))

  /** Directed edge list `(src, dst, weight)`; both directions materialised. */
  def edgeList: Iterator[(Int, Int, Double)] =
    Iterator.range(0, numVertices).flatMap(v => neighbors(v).iterator.map(u => (v, u, edgeWeight(v, u))))

  /** Directed edges as a DataFrame: `src, dst, weight`. */
  def edgesDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.createDataset(edgeList.toSeq).toDF("src", "dst", "weight")
  }
}

object RoadNetwork {

  /** SplitMix64 finaliser — the single hash used for all derived randomness
    * (edge noise, POI tags, Hash partitioning) so driver and executor views
    * agree bit-for-bit.
    */
  @inline def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Places `nCities` centres by seeded rejection sampling with a minimum
    * pairwise separation, then assigns Zipf-like population shares
    * `1/(rank+1)^alpha` (rank 0 = largest city).
    */
  def generate(
      name: String,
      side: Int,
      nCities: Int,
      tagRate: Int,
      seed: Long,
      zipfAlpha: Double = 0.9): RoadNetwork = {
    require(side >= 4, s"side must be >= 4, got $side")
    require(nCities >= 1 && nCities <= side * side, s"bad nCities=$nCities")
    val rng = new scala.util.Random(seed)
    val margin = math.max(1, side / 12)
    val minSep = math.max(2.0, side / (math.sqrt(nCities.toDouble) * 1.7))
    val centres = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var attempts = 0
    while (centres.length < nCities && attempts < 100000) {
      val x = margin + rng.nextInt(math.max(1, side - 2 * margin))
      val y = margin + rng.nextInt(math.max(1, side - 2 * margin))
      val ok = centres.forall { case (cx, cy) =>
        val dx = (x - cx).toDouble; val dy = (y - cy).toDouble
        math.sqrt(dx * dx + dy * dy) >= minSep
      }
      if (ok) centres += ((x, y))
      attempts += 1
    }
    require(centres.length == nCities,
      s"could not place $nCities cities on a $side x $side grid (placed ${centres.length})")
    val raw = Array.tabulate(nCities)(i => 1.0 / math.pow(i + 1.0, zipfAlpha))
    val norm = raw.sum
    val cities = centres.toIndexedSeq.zipWithIndex.map { case ((x, y), i) =>
      City(i, x, y, raw(i) / norm)
    }
    RoadNetwork(name, side, cities, tagRate, seed)
  }

  /** Scaled stand-in for the paper's Baden-Wuerttemberg graph (1.8M v, 16
    * hotspot cities): 110x110 grid = 12,100 junctions, 16 cities.
    */
  def bwLite: RoadNetwork = generate("BW-lite", side = 110, nCities = 16, tagRate = 200, seed = 42)

  /** Scaled stand-in for the paper's Germany graph (11.8M v, 64 hotspot
    * cities): 200x200 grid = 40,000 junctions, 64 cities. The population
    * Zipf is steeper than BW's: the paper attributes GY's straggler
    * behaviour to "the higher number of queries processed by the worker
    * responsible for the largest German city Berlin" — a dominant head
    * city.
    */
  def gyLite: RoadNetwork =
    generate("GY-lite", side = 200, nCities = 64, tagRate = 200, seed = 43, zipfAlpha = 1.25)
}
