package repro.qcut

/** A mutable ILS solution state over scope atoms.
  *
  * The state tracks, per worker: the vertex count |V(w)|, the summed local
  * scope sizes Σ_q |LS(q,w)|, and hence the paper's workload
  * `L_w = (|V(w)| + Σ_q |LS(q,w)|) / 2` (Appendix A.1). The cost function is
  * the query-cut cost of Section 3.2.2:
  * `Σ_q Σ_{w != argmax_w' |LS(q,w')|} |LS(q,w)|`.
  *
  * Moves operate on *query clusters* (Appendix A.1: queries are
  * pre-clustered with a Karger-style algorithm into 4k clusters and whole
  * clusters are moved between workers). [[moveCluster]]`(c, from, to)`, the
  * one way the state changes, relocates every atom on `from` whose
  * signature intersects cluster `c` — this is the API-level
  * `move(LS(q,w), w, w')` of Table 2 lifted to clusters.
  *
  * Note on balance accounting: the paper's Algorithm 2 approximates the
  * workload change of a move by the scope size x; the one per-move test,
  * [[pairBalancedAfter]], takes the exact change from the moved atoms
  * (vertices and scope multiplicities), which is strictly more faithful to
  * the workload definition. The δ-threshold form of the predicate is the
  * paper's.
  *
  * The window's atom indices (the size of each atom, the query indices and
  * clusters of each atom, the atoms of each cluster) are flat primitive
  * columns, built once by [[QCutState.build]] and shared by every
  * [[copyState]]; only the assignment and the per-worker counts are copied.
  */
final class QCutState private (
    val atoms: IndexedSeq[Atom],
    val queryIds: IndexedSeq[Int],
    val clusterOfQuery: Array[Int],
    val nClusters: Int,
    val k: Int,
    val delta: Double,
    val assign: Array[Int],
    private[qcut] val index: QCutState.Index,
    // caches, all owned by this instance; per-(query, worker) and
    // per-(cluster, worker) counts are flat, row-major with stride k:
    private val ls: Array[Long],
    private val clusterMass: Array[Long],
    private val vCount: Array[Long],
    private val sCount: Array[Long]) {

  def nQueries: Int = queryIds.length

  /** |LS(q, w)| for query index (not qid!) `qi`. */
  def localScope(qi: Int, w: Int): Long = ls(qi * k + w)

  /** Union scope size of cluster `c` on worker `w`. */
  def clusterScope(c: Int, w: Int): Long = clusterMass(c * k + w)

  /** The paper's workload L_w. */
  def load(w: Int): Double = workload(vCount(w), sCount(w))

  /** The largest workload over all workers. */
  def maxLoad: Double = (0 until k).map(load).max

  /** Query-cut cost of the current assignment (Section 3.2.2). */
  def cost: Long = {
    var total = 0L
    var qi = 0
    while (qi < nQueries) {
      var sum = 0L; var max = 0L; var w = 0
      while (w < k) { val x = ls(qi * k + w); sum += x; if (x > max) max = x; w += 1 }
      total += sum - max
      qi += 1
    }
    total
  }

  /** Global balance: every worker pair satisfies the δ-constraint, which
    * holds iff the least and the most loaded worker satisfy it.
    */
  def globallyBalanced: Boolean = {
    var min = Double.MaxValue; var max = 0.0
    var w = 0
    while (w < k) { val l = load(w); if (l < min) min = l; if (l > max) max = l; w += 1 }
    balanced(min, max)
  }

  /** Would a move of `dV` vertices carrying `dS` scope multiplicity from
    * `from` to `to` keep the moved pair balanced? The predicate of
    * Algorithm 2 line 15, on the exact post-move workloads.
    */
  private[qcut] def pairBalancedAfter(from: Int, to: Int, dV: Long, dS: Long): Boolean =
    balanced(workload(vCount(from) - dV, sCount(from) - dS), workload(vCount(to) + dV, sCount(to) + dS))

  /** L_w = (|V(w)| + Σ_q |LS(q,w)|) / 2 from its two counts (Appendix A.1). */
  private def workload(v: Long, s: Long): Double = (v + s) / 2.0

  /** The δ-constraint of Appendix A.1 on two workloads: |a − b| / max(a, b) < δ. */
  private def balanced(a: Double, b: Double): Boolean = {
    val m = math.max(a, b)
    m == 0 || math.abs(a - b) / m < delta
  }

  /** Moves atom `i` from `from`, where it is, to another worker `to`. */
  private def moveAtom(i: Int, from: Int, to: Int): Unit = {
    val ix = index
    val sz = ix.atomSize(i)
    assign(i) = to
    vCount(from) -= sz; vCount(to) += sz
    val dS = sz * ix.nQueriesOf(i)
    sCount(from) -= dS; sCount(to) += dS
    var j = ix.atomQueryStart(i)
    while (j < ix.atomQueryStart(i + 1)) {
      val row = ix.atomQuery(j) * k; ls(row + from) -= sz; ls(row + to) += sz; j += 1
    }
    j = ix.atomClusterStart(i)
    while (j < ix.atomClusterStart(i + 1)) {
      val row = ix.atomCluster(j) * k; clusterMass(row + from) -= sz; clusterMass(row + to) += sz; j += 1
    }
  }

  /** `move(LS(c, from), from, to)` lifted to cluster `c`: moves every atom
    * on `from` whose signature intersects cluster `c` to `to`.
    */
  def moveCluster(c: Int, from: Int, to: Int): Unit =
    if (from != to) {
      var j = index.clusterAtomStart(c)
      while (j < index.clusterAtomStart(c + 1)) {
        val i = index.clusterAtom(j)
        if (assign(i) == from) moveAtom(i, from, to)
        j += 1
      }
    }

  /** Deep copy (atoms and indices are shared, caches are cloned). */
  def copyState(): QCutState =
    new QCutState(atoms, queryIds, clusterOfQuery, nClusters, k, delta, assign.clone(), index,
      ls.clone(), clusterMass.clone(), vCount.clone(), sCount.clone())

  /** Translates the high-level solution back to a vertex assignment
    * (step 3 of the MAPE strategy, Fig. 3): applies every atom that moved
    * relative to `base`. Returns the new assignment and the number of moved
    * vertices.
    */
  def toVertexAssignment(base: Array[Int]): (Array[Int], Long) = {
    val out = base.clone()
    var moved = 0L
    for (i <- atoms.indices if assign(i) != atoms(i).worker) {
      val w = assign(i)
      for (v <- atoms(i).vids) out(v) = w
      moved += atoms(i).size
    }
    (out, moved)
  }
}

object QCutState {

  /** Read-only indices of one window's atoms, shared by all copies. Each
    * relation is a flat array of rows with row `r` at
    * `xs(xsStart(r) until xsStart(r + 1))`, ascending:
    *
    * @param atomSize      per atom: its vertex count
    * @param atomQuery     per atom: query indices of its signature
    * @param atomCluster   per atom: distinct clusters its signature intersects
    * @param clusterAtom   per cluster: atoms whose signature intersects it
    */
  private[qcut] final class Index(
      val atomSize: Array[Long],
      val atomQueryStart: Array[Int],
      val atomQuery: Array[Int],
      val atomClusterStart: Array[Int],
      val atomCluster: Array[Int],
      val clusterAtomStart: Array[Int],
      val clusterAtom: Array[Int]) {
    /** |sig| of atom `i`. */
    def nQueriesOf(i: Int): Int = atomQueryStart(i + 1) - atomQueryStart(i)
  }

  /** `rows` as (row starts, flat items). */
  private def flat(rows: Array[Array[Int]]): (Array[Int], Array[Int]) = {
    val start = new Array[Int](rows.length + 1)
    for (r <- rows.indices) start(r + 1) = start(r) + rows(r).length
    (start, rows.flatten)
  }

  /** Builds the initial ILS state ("as received by the workers",
    * Appendix A.3) from atoms and the per-worker total vertex counts.
    *
    * @param totalPerWorker |V(w)| under the current assignment (touched and
    *                       untouched vertices)
    * @param clusterOfQuery query-index -> cluster id (from
    *                       [[KargerClustering]]; identity for <= 4k queries)
    */
  def build(
      atoms: IndexedSeq[Atom],
      totalPerWorker: Array[Long],
      k: Int,
      delta: Double,
      clusterOfQuery: Array[Int]): QCutState = {
    val queryIds = atoms.flatMap(_.sig).distinct.sorted.toArray
    require(clusterOfQuery.length == queryIds.length,
      s"clusterOfQuery size ${clusterOfQuery.length} != ${queryIds.length} queries")
    val nClusters = if (clusterOfQuery.isEmpty) 0 else clusterOfQuery.max + 1
    val atomQueries = atoms.iterator.map(a => a.sig.iterator.map(java.util.Arrays.binarySearch(queryIds, _)).toArray).toArray
    val atomClusters = atomQueries.map(qs => qs.map(clusterOfQuery(_)).distinct.sorted)
    val clusterAtoms = {
      val acc = Array.fill(nClusters)(Array.newBuilder[Int])
      for (i <- atomClusters.indices; c <- atomClusters(i)) acc(c) += i
      acc.map(_.result())
    }
    val ls = new Array[Long](queryIds.length * k)
    val clusterMass = new Array[Long](nClusters * k)
    val vTouched = new Array[Long](k)
    val sCount = new Array[Long](k)
    for (i <- atoms.indices) {
      val a = atoms(i)
      val sz = a.size.toLong
      vTouched(a.worker) += sz
      sCount(a.worker) += sz * a.sig.length
      for (qi <- atomQueries(i)) ls(qi * k + a.worker) += sz
      for (c <- atomClusters(i)) clusterMass(c * k + a.worker) += sz
    }
    require((0 until k).forall(w => totalPerWorker(w) >= vTouched(w)), "totalPerWorker smaller than touched vertices")
    val (aqStart, aq) = flat(atomQueries)
    val (acStart, ac) = flat(atomClusters)
    val (caStart, ca) = flat(clusterAtoms)
    val index = new Index(atoms.iterator.map(_.size.toLong).toArray, aqStart, aq, acStart, ac, caStart, ca)
    new QCutState(atoms, queryIds.toIndexedSeq, clusterOfQuery, nClusters, k, delta, atoms.map(_.worker).toArray,
      index, ls, clusterMass, totalPerWorker.clone(), sCount)
  }
}
