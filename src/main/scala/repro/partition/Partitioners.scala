package repro.partition

import repro.graph.RoadNetwork

/** A static graph partitioner: assigns every vertex to one of `k` workers.
  *
  * The product is the dense driver-side assignment array (the simulator,
  * Q-cut and the controller all consume it).
  */
trait GraphPartitioner {
  def name: String

  /** vid -> worker in [0, k). */
  def assign(g: RoadNetwork, k: Int): Array[Int]
}

/** Hash partitioning — the paper's workload-balance-optimal baseline:
  * vertices are spread pseudo-randomly, so every query scope is split across
  * essentially all workers (locality ~1/k) but load is perfectly balanced.
  */
object HashPartitioner extends GraphPartitioner {
  val name = "Hash"

  def assign(g: RoadNetwork, k: Int): Array[Int] =
    Array.tabulate(g.numVertices)(v => java.lang.Long.remainderUnsigned(RoadNetwork.mix64(v.toLong), k.toLong).toInt)
}

/** Domain partitioning — the paper's best-case *static* expert baseline:
  * "a domain expert, who already knows the hotspots of the query
  * distribution in advance, manually partitions the graph such that each
  * hotspot is assigned to a single partition."
  *
  * Every Voronoi city region goes wholly to one worker. An expert splits
  * the map *geographically*: cities are sorted by longitude and dealt into
  * k contiguous groups of (near-)equal city count, so with k=16 and 16
  * cities every hotspot has its own worker, and with small k each worker
  * owns a contiguous slice of the map — which is what makes Domain's query
  * workload as skewed as the population distribution of its slice (the
  * paper's straggler effect at low k).
  */
object DomainPartitioner extends GraphPartitioner {
  val name = "Domain"

  /** city id -> worker: contiguous longitude bands of near-equal city count. */
  def cityWorker(g: RoadNetwork, k: Int): IndexedSeq[Int] = {
    val byX = g.cities.sortBy(c => (c.cx, c.cy, c.id)).map(_.id)
    val n = byX.length
    val out = Array.fill(n)(0)
    for ((cid, pos) <- byX.zipWithIndex) out(cid) = math.min(k - 1, pos * k / n)
    out.toIndexedSeq
  }

  def assign(g: RoadNetwork, k: Int): Array[Int] = {
    val cw = cityWorker(g, k)
    Array.tabulate(g.numVertices)(v => cw(g.cityOf(v)))
  }
}

/** Linear deterministic greedy (LDG) streaming partitioning
  * [Stanton & Kliot, KDD'12] — the state-of-the-art query-agnostic
  * partitioner the paper tested and excluded for its imbalance under skewed
  * query workloads (Section 4.1).
  *
  * Vertices stream in id order; each is placed on the worker maximising
  * `|N(v) ∩ P_i| * (1 - |P_i| / C)` with capacity `C = (1 + eps) * n / k`.
  */
object LdgPartitioner extends GraphPartitioner {
  val name = "LDG"
  private val eps = 0.1

  def assign(g: RoadNetwork, k: Int): Array[Int] = {
    val n = g.numVertices
    val cap = (1.0 + eps) * n / k
    val owner = Array.fill(n)(-1)
    val sizes = Array.fill(k)(0)
    var v = 0
    while (v < n) {
      val neigh = g.neighbors(v)
      var bestW = 0
      var bestScore = Double.NegativeInfinity
      var w = 0
      while (w < k) {
        if (sizes(w) < cap) {
          var inter = 0
          var i = 0
          while (i < neigh.length) {
            if (owner(neigh(i)) == w) inter += 1
            i += 1
          }
          val score = inter * (1.0 - sizes(w) / cap)
          // Tie-break on the emptier worker for determinism.
          if (score > bestScore || (score == bestScore && sizes(w) < sizes(bestW))) {
            bestScore = score
            bestW = w
          }
        }
        w += 1
      }
      owner(v) = bestW
      sizes(bestW) += 1
      v += 1
    }
    owner
  }
}
