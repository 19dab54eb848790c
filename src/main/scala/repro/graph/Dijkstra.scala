package repro.graph

import scala.collection.mutable

/** Driver-side Dijkstra — the independent gold reference used by tests to
  * validate the distributed vertex-centric engine (and, on tiny graphs,
  * cross-checked itself against a DuckDB recursive-CTE oracle).
  */
object Dijkstra {

  /** Shortest distances from `start` to every vertex with distance strictly
    * below `bound` (plus any vertex whose final distance equals the best
    * distance found at the moment it is settled). `bound = Inf` settles the
    * whole reachable component.
    */
  def distances(
      adj: Array[Array[(Int, Double)]],
      start: Int,
      bound: Double = Double.PositiveInfinity): mutable.HashMap[Int, Double] =
    search(adj, start, bound, _ => false)._1

  /** Shortest-path distance start -> end, or None if unreachable. */
  def shortestPath(adj: Array[Array[(Int, Double)]], start: Int, end: Int): Option[Double] =
    search(adj, start, Double.PositiveInfinity, _ == end)._2.map(_._2)

  /** Nearest vertex satisfying `tagged` (the POI query): returns
    * `(vid, distance)` of the closest tagged vertex, ties broken by the
    * smaller vertex id (matching the engine's deterministic tie-break).
    */
  def nearestTagged(
      adj: Array[Array[(Int, Double)]],
      start: Int,
      tagged: Int => Boolean): Option[(Int, Double)] =
    search(adj, start, Double.PositiveInfinity, tagged)._2

  /** The one search: settles vertices in (distance, vid) order, relaxing
    * only to distances `<= bound`, until the next vertex to settle satisfies
    * `stop`. Returns the settled distances and the `(vid, distance)` it
    * stopped at, if any.
    */
  private def search(
      adj: Array[Array[(Int, Double)]],
      start: Int,
      bound: Double,
      stop: Int => Boolean): (mutable.HashMap[Int, Double], Option[(Int, Double)]) = {
    val dist = mutable.HashMap.empty[Int, Double]
    val settled = mutable.HashMap.empty[Int, Double]
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering[(Double, Int)].reverse)
    dist(start) = 0.0
    pq.enqueue((0.0, start))
    while (pq.nonEmpty) {
      val (d, v) = pq.dequeue()
      if (!settled.contains(v) && d <= bound) {
        if (stop(v)) return (settled, Some((v, d)))
        settled(v) = d
        for ((u, w) <- adj(v)) {
          val nd = d + w
          if (nd < dist.getOrElse(u, Double.PositiveInfinity) && nd <= bound) {
            dist(u) = nd
            pq.enqueue((nd, u))
          }
        }
      }
    }
    (settled, None)
  }
}
