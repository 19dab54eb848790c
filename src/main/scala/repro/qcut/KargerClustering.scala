package repro.qcut

import scala.util.Random

/** Query clustering preprocessing of Appendix A.1: "we clustered the queries
  * as a preprocessing step into 4k clusters using a variant of the
  * well-known Karger's algorithm [...] and moved whole clusters between
  * workers."
  *
  * We build the query overlap graph (edge weight = number of shared scope
  * vertices, from the atoms' intersection structure) and contract randomly
  * chosen edges, probability proportional to weight — Karger's contraction —
  * until at most `target` components remain or no overlap edge connects two
  * components. Heavily overlapping queries therefore end up in one cluster
  * and are moved together.
  *
  * The overlaps are a dense n × n `Long` matrix over the window's query
  * indices, filled above the diagonal only (n ≤ 128 queries in a window).
  * Read row by row, its nonzero cells are the edges in base order, sorted by
  * (query index, query index), so no sort is needed before the seeded draws.
  *
  * Contraction keeps the edges in their cells and drops dead edges (those
  * inside one component) by zeroing their weight: when components A and B
  * merge, exactly the edges between a member of A and a member of B die, so
  * each query pair is looked at once over the whole run. A Fenwick tree over
  * the cells finds, for a draw, the first cell whose weight added to those
  * before it exceeds the draw, which is the edge a walk over the list of
  * live edges in base order stops at. The total, the draw
  * `(rng.nextDouble() * total).toLong` and the fallback to the first live
  * edge are those of that walk, so the same seed takes the same random
  * numbers and gives the same clusters.
  */
object KargerClustering {

  /** Pairwise overlap weights of the queries `queryIds` (strictly
    * ascending): the weight of query indices i < j is `weight(i * n + j)`,
    * and every cell on or below the diagonal is 0. [[cluster]] kills an
    * edge by zeroing its cell above the diagonal, so a weight below it
    * would never die.
    */
  final class Overlaps(val queryIds: IndexedSeq[Int], val weight: Array[Long]) {
    private val n = queryIds.length
    require(weight.length == n * n, "weight must be n x n")
    require((1 until n).forall(i => queryIds(i - 1) < queryIds(i)), "queryIds must be strictly ascending")
    require((0 until n).forall(i => (0 to i).forall(j => weight(i * n + j) == 0)),
      "weights must lie above the diagonal")
    require(weight.forall(_ >= 0), "weights must not be negative")
  }

  /** Pairwise overlap weights derived from atoms: for every atom, each query
    * pair in its signature shares the atom's vertices.
    */
  def overlapsFromAtoms(atoms: Seq[Atom]): Overlaps = {
    val queryIds = atoms.flatMap(_.sig).distinct.sorted.toArray
    val n = queryIds.length
    val weight = new Array[Long](n * n)
    val ix = new Array[Int](atoms.iterator.map(_.sig.length).maxOption.getOrElse(0))
    for (a <- atoms) {
      val m = a.sig.length
      var i = 0
      while (i < m) { ix(i) = java.util.Arrays.binarySearch(queryIds, a.sig(i)); i += 1 }
      i = 0
      while (i < m) {
        var j = i + 1
        while (j < m) { weight(ix(i) * n + ix(j)) += a.size; j += 1 }
        i += 1
      }
    }
    new Overlaps(queryIds.toIndexedSeq, weight)
  }

  /** Contracts the overlap graph on `queryIds` down to <= `target` clusters.
    * `overlaps` must be over exactly `queryIds`. Returns cluster ids
    * (0-based, compact, in order of first appearance) aligned with
    * `queryIds`.
    */
  def cluster(
      queryIds: IndexedSeq[Int],
      overlaps: Overlaps,
      target: Int,
      rng: Random): Array[Int] = {
    require(target >= 1)
    require(overlaps.queryIds == queryIds, "overlaps must be over exactly queryIds")
    val n = queryIds.length
    val parent = Array.tabulate(n)(i => i)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != c) {
        val next = parent(c)
        parent(c) = r
        c = next
      }
      r
    }
    // Live edge weights by cell, and a Fenwick tree over them for the draws.
    val cells = n * n
    val live = overlaps.weight.clone()
    val tree = new Array[Long](cells + 1)
    var total = 0L
    var cell = 0
    while (cell < cells) {
      val i = cell + 1
      tree(i) += live(cell); total += live(cell)
      val up = i + (i & -i)
      if (up <= cells) tree(up) += tree(i)
      cell += 1
    }
    // The first cell whose weight, added to those before it, exceeds `x`:
    // the edge a walk over the live edges in base order stops at; `cells`
    // if there is none.
    def firstAbove(x: Long): Int = {
      var pos = 0; var rest = x
      var step = Integer.highestOneBit(cells)
      while (step > 0) {
        val p = pos + step
        if (p <= cells && tree(p) <= rest) { pos = p; rest -= tree(p) }
        step >>= 1
      }
      pos
    }
    def kill(cell: Int): Unit = {
      val w = live(cell)
      if (w > 0) {
        live(cell) = 0; total -= w
        var i = cell + 1
        while (i <= cells) { tree(i) -= w; i += i & -i }
      }
    }
    // Each component's members as a circular list through `next`.
    val next = Array.tabulate(n)(i => i)
    var components = n
    while (components > target && total > 0) {
      var pick = firstAbove((rng.nextDouble() * total).toLong)
      if (pick == cells) pick = firstAbove(0L)
      val ra = find(pick / n); val rb = find(pick % n)
      // Every edge between the two components dies.
      var u = ra
      while ({
        var v = rb
        while ({
          kill(if (u < v) u * n + v else v * n + u)
          v = next(v)
          v != rb
        }) ()
        u = next(u)
        u != ra
      }) ()
      val t = next(ra); next(ra) = next(rb); next(rb) = t
      parent(rb) = ra
      components -= 1
    }
    val id = Array.fill(n)(-1)
    var nIds = 0
    Array.tabulate(n) { q =>
      val r = find(q)
      if (id(r) < 0) { id(r) = nIds; nIds += 1 }
      id(r)
    }
  }

  /** Identity clustering (used when the window holds <= target queries, and
    * by tests that need cluster == query).
    */
  def identityClusters(nQueries: Int): Array[Int] = Array.tabulate(nQueries)(i => i)
}
