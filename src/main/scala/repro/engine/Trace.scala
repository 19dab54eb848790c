package repro.engine

/** Vertex `vid` of query `qid` is *active* in iteration `iter` — it received
  * at least one message in iteration `iter - 1` (or is a start vertex at
  * iteration 0). This is the paper's activation definition (Section 2) and
  * the unit of the global query scope GS(q).
  */
final case class ActRec(qid: Int, iter: Int, vid: Int)

/** A vertex message sent along edge `src -> dst` by query `qid` during the
  * communication phase of iteration `iter`.
  */
final case class MsgRec(qid: Int, iter: Int, src: Int, dst: Int)

/** Final answer of a query.
  *
  * @param found      whether the target (SSSP end / any POI) was reached
  * @param dist       shortest travel time to the target (NaN when not found)
  * @param target     SSSP end vertex, or the nearest tagged vertex for POI
  * @param iterations number of BSP iterations the query was active for
  */
final case class QueryResult(qid: Int, found: Boolean, dist: Double, target: Int, iterations: Int)

/** The complete execution trace of one 16-query batch.
  *
  * Load-bearing property (asserted by tests, relied on by the simulator):
  * under synchronous BSP the trace is a pure function of (graph, queries) —
  * it does not depend on how the graph is partitioned. Partitioning and
  * barrier management only decide *where* each activation executes and
  * *which* messages cross worker boundaries, which is exactly what
  * `repro.sim.IterationStats` derives from a trace plus an assignment.
  */
final case class BatchTrace(
    batchId: Int,
    queries: Vector[Query],
    iterations: Int,
    activations: Vector[ActRec],
    messages: Vector[MsgRec],
    results: Map[Int, QueryResult],
    finalDistances: Map[Int, Map[Int, Double]]) {

  /** Global query scope GS(q): every vertex activated by query q. */
  def globalScope(qid: Int): Set[Int] =
    activations.iterator.filter(_.qid == qid).map(_.vid).toSet
}
