package repro.props

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestFixtures}
import repro.engine.{ActRec, MsgRec, Query, QueryKind}
import repro.qcut._
import repro.sim.{BatchSim, CostModel, IterationStats, LatencySimulator, Metrics}
import repro.sync.BarrierMode
import repro.workload.QueryWorkload

/** Property-based invariants (plain ScalaCheck driven from ScalaTest — the
  * scalatestplus bridge is not available offline).
  */
class PropertySpec extends AnyFunSuite {

  private def check(prop: Prop, minTests: Int = 50): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minTests), prop)
    assert(res.passed, res.status.toString)
  }

  private val genScopes: Gen[Map[Int, Set[Int]]] = for {
    nQ <- Gen.choose(1, 6)
    scopes <- Gen.sequence[List[(Int, Set[Int])], (Int, Set[Int])](
      (0 until nQ).map { q =>
        Gen.nonEmptyContainerOf[Set, Int](Gen.choose(0, 30)).map(s => q -> s)
      })
  } yield scopes.toMap

  private def mkState(scopes: Map[Int, Set[Int]], k: Int): Option[QCutState] = {
    val assign: Int => Int = v => v % k
    val atoms = ScopeAtoms.build(scopes, assign)
    val totals = Array.fill(k)(0L)
    (0 to 30).foreach(v => totals(assign(v)) += 1)
    val qids = atoms.flatMap(_.sig).distinct.sorted
    if (qids.isEmpty) None
    else Some(QCutState.build(atoms, totals, k, 10.0, KargerClustering.identityClusters(qids.size)))
  }

  test("property: atoms partition the union of scopes under any assignment") {
    check(Prop.forAll(genScopes, Gen.choose(1, 5)) { (scopes, k) =>
      val assign: Int => Int = v => v % k
      val atoms = ScopeAtoms.build(scopes, assign)
      val vids = atoms.flatMap(_.vids)
      vids.size == vids.distinct.size &&
        vids.toSet == scopes.values.flatten.toSet &&
        atoms.forall(a => a.vids.forall(v => assign(v) == a.worker))
    })
  }

  test("property: atom-derived local scope sizes match the direct definition") {
    check(Prop.forAll(genScopes, Gen.choose(1, 5)) { (scopes, k) =>
      val assign: Int => Int = v => v % k
      val atoms = ScopeAtoms.build(scopes, assign)
      scopes.forall { case (q, scope) =>
        (0 until k).forall { w =>
          Oracle.localScopeSize(atoms, q, w) == scope.count(assign(_) == w).toLong
        }
      }
    })
  }

  test("property: QCutState cost is non-negative and bounded by total scope mass") {
    check(Prop.forAll(genScopes, Gen.choose(2, 4)) { (scopes, k) =>
      mkState(scopes, k).forall { s =>
        val mass = scopes.values.map(_.size.toLong).sum
        s.cost >= 0L && s.cost <= mass
      }
    })
  }

  test("property: everything on one worker has cost 0") {
    check(Prop.forAll(genScopes, Gen.choose(2, 4)) { (scopes, k) =>
      val atoms = ScopeAtoms.build(scopes, _ => 0)
      val totals = Array.fill(k)(0L); totals(0) = 31
      val qids = atoms.flatMap(_.sig).distinct.sorted
      qids.isEmpty || {
        val s = QCutState.build(atoms, totals, k, 10.0, KargerClustering.identityClusters(qids.size))
        s.cost == 0L
      }
    })
  }

  test("property: ScopeAtoms.build returns the atoms of its definition, in its order") {
    check(Prop.forAll(genScopes, Gen.choose(1, 5)) { (scopes, k) =>
      val assign: Int => Int = v => (v * 7 + 3) % k
      val got = ScopeAtoms.build(scopes, assign)
      val want = Oracle.scopeAtoms(scopes, assign)
      got.map(a => (a.sig, a.worker, a.vids.toVector)) == want.map(a => (a.sig, a.worker, a.vids.toVector))
    })
  }

  test("property: ScopeAtoms over sorted scope arrays equals the set path and the oracle") {
    check(Prop.forAll(genScopes, Gen.choose(1, 5)) { (scopes, k) =>
      val assign: Int => Int = v => (v * 5 + 1) % k
      def rows(atoms: Seq[Atom]) = atoms.map(a => (a.sig, a.worker, a.vids.toVector))
      val got = rows(ScopeAtoms.fromArrays(scopes.map { case (q, s) => q -> s.toArray.sorted }, assign))
      got == rows(ScopeAtoms.build(scopes, assign)) && got == rows(Oracle.scopeAtoms(scopes, assign))
    })
  }

  /** A Q-cut state over random scopes on k in [2, `maxK`] workers, with a
    * tight or loose δ, identity or Karger clusters, after a few random
    * cluster moves, and the untouched vertices of every worker, which no
    * move changes. Half the time δ is the initial state's exact
    * (max − min) / max load ratio, so the strict `<` of the δ-constraint is
    * tested at its boundary whenever the moves leave the extremes as they
    * were.
    */
  private def genQCut(maxK: Int = 16): Gen[(QCutState, Array[Long])] = for {
    k <- Gen.choose(2, maxK)
    nV <- Gen.choose(8, 60)
    nQ <- Gen.choose(1, 12)
    scopes <- Gen.sequence[List[(Int, Set[Int])], (Int, Set[Int])](
      (0 until nQ).map(q => Gen.nonEmptyContainerOf[Set, Int](Gen.choose(0, nV - 1)).map(s => (3 * q + 1) -> s)))
    delta <- Gen.oneOf(0.02, 0.1, 0.25, 0.5, 10.0)
    atBoundary <- Gen.oneOf(false, true)
    karger <- Gen.oneOf(false, true)
    nMoves <- Gen.choose(0, 8)
    seed <- Gen.choose(0L, Long.MaxValue)
  } yield {
    val rng = new scala.util.Random(seed)
    val assign = Array.fill(nV)(rng.nextInt(k))
    val atoms = ScopeAtoms.build(scopes.toMap, assign)
    val totals = Array.fill(k)(0L)
    assign.foreach(w => totals(w) += 1L)
    val qids = atoms.flatMap(_.sig).distinct.sorted
    val clusters =
      if (karger) KargerClustering.cluster(qids, KargerClustering.overlapsFromAtoms(atoms), 1 + rng.nextInt(qids.size), rng)
      else KargerClustering.identityClusters(qids.size)
    val s0 = QCutState.build(atoms, totals, k, delta, clusters)
    val loads = (0 until k).map(s0.load)
    val s = if (atBoundary) QCutState.build(atoms, totals, k, (loads.max - loads.min) / loads.max, clusters) else s0
    for (_ <- 0 until nMoves) {
      val c = rng.nextInt(s.nClusters)
      val from = rng.nextInt(k)
      s.moveCluster(c, from, (from + 1 + rng.nextInt(k - 1)) % k)
    }
    val untouched = totals.clone()
    atoms.foreach(a => untouched(a.worker) -= a.size)
    (s, untouched)
  }

  private val genQCutState: Gen[QCutState] = genQCut().map(_._1)

  /** Random moves as (cluster, source, shift) seeds; see [[move]]. */
  private val genMoves = Gen.listOf(Gen.zip(Gen.choose(0, 1000), Gen.choose(0, 1000), Gen.choose(1, 1000)))

  /** The move (cluster, from, to) of `s` that a seed of [[genMoves]] picks:
    * mostly from a worker where the cluster has scope.
    */
  private def move(s: QCutState, seed: (Int, Int, Int)): (Int, Int, Int) = {
    val (cc, f, shift) = seed
    val c = cc % s.nClusters
    val on = (0 until s.k).filter(s.clusterScope(c, _) > 0)
    val from = if (f % 5 == 0 || on.isEmpty) f % s.k else on(f % on.size)
    (c, from, (from + 1 + shift % (s.k - 1)) % s.k)
  }

  test("property: each moveCluster leaves the state a fresh build would give") {
    check(Prop.forAll(genQCut(), genMoves) { case ((s, untouched), moves) =>
      moves.forall { seed =>
        val (c, from, to) = move(s, seed)
        val before = s.copyState()
        s.moveCluster(c, from, to)
        val changed = s.atoms.indices.filter(i => s.assign(i) != before.assign(i))
        changed == Oracle.atomsOn(before, c, from) && changed.forall(s.assign(_) == to) &&
          Oracle.counts(s) == Oracle.counts(Oracle.rebuilt(s, untouched))
      }
    }, minTests = 200)
  }

  test("property: renaming workers keeps a Q-cut state's cost and balance and permutes its loads") {
    check(Prop.forAll(genQCut(maxK = 64), Gen.long) { case ((s, untouched), seed) =>
      val perm = new scala.util.Random(seed).shuffle((0 until s.k).toVector)
      val r = Oracle.rebuilt(s, untouched, perm)
      r.cost == s.cost && r.globallyBalanced == s.globallyBalanced && (0 until s.k).forall(w => r.load(perm(w)) == s.load(w))
    }, minTests = 200)
  }

  test("property: delta-evaluated bestSuccessor equals apply/cost/undo along a whole descent") {
    check(Prop.forAll(genQCutState) { s =>
      var ok = true
      var steps = 0
      var continue = true
      while (ok && continue && steps < 200) {
        val best = new LocalSearch.SuccessorTable(s).successor
        ok = best == Oracle.bestSuccessor(s)
        best match {
          case Some((m, cost)) if ok && cost < s.cost =>
            s.moveCluster(m.c, m.from, m.to)
            ok = s.cost == cost
            steps += 1
          case _ => continue = false
        }
      }
      ok
    }, minTests = 200)
  }

  test("property: one successor table kept across random moves gives the oracle's successor at every step") {
    check(Prop.forAll(genQCutState, genMoves) { (s, moves) =>
      val table = new LocalSearch.SuccessorTable(s)
      def agrees = {
        val best = table.successor
        best == Oracle.bestSuccessor(s) && best == Oracle.scanSuccessor(s)
      }
      agrees && moves.forall { seed =>
        val (c, from, to) = move(s, seed)
        table.move(c, from, to)
        agrees
      }
    }, minTests = 300)
  }

  test("property: Karger over the dense overlaps gives the oracle's clusters and draws") {
    var disconnected = 0
    var atLeastN = 0
    check(Prop.forAll(genScopes, Gen.choose(1, 4), Gen.choose(1, 8), Gen.long) { (scopes, k, target, seed) =>
      val atoms = ScopeAtoms.build(scopes, v => v % k)
      val qids = atoms.flatMap(_.sig).distinct.sorted
      val o = KargerClustering.overlapsFromAtoms(atoms)
      val ra = new scala.util.Random(seed); val rb = new scala.util.Random(seed)
      val mine = KargerClustering.cluster(qids, o, target, ra)
      val oracle = Oracle.cluster(qids, Oracle.overlapsFromAtoms(atoms), target, rb)
      if (target >= qids.size) atLeastN += 1
      else if (mine.distinct.length > target) disconnected += 1
      TestFixtures.overlapMap(o) == Oracle.overlapsFromAtoms(atoms) &&
        mine.sameElements(oracle) && ra.nextLong() == rb.nextLong()
    }, minTests = 500)
    assert(atLeastN > 0, "no generated case had target >= n")
    assert(disconnected > 0, "no generated overlap graph stopped above its target")
  }

  test("property: globallyBalanced is the δ-constraint on every worker pair, before and after moves") {
    def everyPair(s: QCutState): Boolean =
      (0 until s.k).forall(w => (0 until s.k).forall { w2 =>
        val a = s.load(w); val b = s.load(w2); val m = math.max(a, b)
        m == 0 || math.abs(a - b) / m < s.delta
      })
    check(Prop.forAll(genQCutState, genMoves) { (s, moves) =>
      s.globallyBalanced == everyPair(s) && moves.forall { seed =>
        val (c, from, to) = move(s, seed)
        s.moveCluster(c, from, to)
        s.globallyBalanced == everyPair(s)
      }
    }, minTests = 200)
  }

  /** Runs `mine` and `oracle` on copies of `s`, each with a `Random` of
    * `seed`: both must leave the same assignment, loads and cost, and their
    * `Random`s at the same point.
    */
  private def sameAsOracle(s: QCutState, seed: Long)(mine: (QCutState, scala.util.Random) => Unit)(
      oracle: (QCutState, scala.util.Random) => Unit): Boolean = {
    val a = s.copyState(); val b = s.copyState()
    val ra = new scala.util.Random(seed); val rb = new scala.util.Random(seed)
    mine(a, ra); oracle(b, rb)
    a.assign.sameElements(b.assign) && (0 until s.k).map(a.load) == (0 until s.k).map(b.load) &&
      a.cost == b.cost && ra.nextLong() == rb.nextLong()
  }

  test("property: rebalance's primitive loop makes the oracle's moves, with either preferSmall") {
    var capped = 0
    var moved = 0
    check(Prop.forAll(genQCutState, Gen.choose(0L, Long.MaxValue)) { (s, seed) =>
      Seq(false, true).forall { preferSmall =>
        sameAsOracle(s, seed)(Perturbation.rebalance(_, _, preferSmall)) { (b, rb) =>
          val made = Oracle.rebalance(b, rb, preferSmall)
          if (made == 1000) capped += 1 else if (made > 0) moved += 1
        }
      }
    }, minTests = 300)
    assert(capped > 0, "no generated repair used all 1000 moves")
    assert(moved > 0, "no generated repair ended before its cap after moving")
  }

  test("property: Perturbation.run's primitive loops make the oracle's draws and moves") {
    check(Prop.forAll(genQCutState, Gen.choose(0L, Long.MaxValue)) { (s, seed) =>
      var mine = false; var oracle = true
      sameAsOracle(s, seed)((a, ra) => mine = Perturbation.run(a, ra))((b, rb) => oracle = Oracle.perturbation(b, rb)) &&
        mine == oracle
    }, minTests = 300)
  }

  // globalScopeArrays is the one-pass form: every query's globalScope as a sorted, distinct array.
  test("property: globalScopes gives every query's globalScope in one pass") {
    val genActs = Gen.listOf(for {
      q <- Gen.choose(0, 5); i <- Gen.choose(0, 3); v <- Gen.choose(0, 20)
    } yield ActRec(q, i, v))
    check(Prop.forAll(genActs) { acts =>
      val queries = (0 to 3).map(q => Query(q, QueryKind.Sssp, 0, 1, 0, 0)).toVector
      val t = TestFixtures.trace(acts, queries = queries, iterations = 4)
      val all = t.globalScopeArrays
      all.keySet == queries.map(_.qid).toSet ++ acts.map(_.qid) &&
        all.forall { case (q, s) => s.toSeq == t.globalScope(q).toSeq.sorted }
    })
  }

  test("property: apportionment always sums to n and is non-negative") {
    val g = repro.TestFixtures.small
    check(Prop.forAll(Gen.choose(1, 500)) { n =>
      val counts = QueryWorkload.apportion(g, n)
      counts.sum == n && counts.forall(_ >= 0)
    })
  }

  test("property: involvedWorkers contains every computing worker; isLocal matches") {
    val genStat = for {
      qid <- Gen.choose(0, 3)
      iter <- Gen.choose(0, 5)
      nw <- Gen.choose(1, 4)
      acts <- Gen.sequence[List[(Int, Int)], (Int, Int)](
        (0 until nw).map(w => Gen.choose(1, 9).map(n => w -> n)))
    } yield Oracle.IterStat(qid, iter, acts.toMap, Map.empty)
    check(Prop.forAll(genStat) { s =>
      val b = TestFixtures.stats(Seq(s))
      (b.computing(0) & ~b.involved(0)) == 0L &&
        b.isLocal(0) == (s.actByWorker.size <= 1)
    })
  }

  private val modes = Seq(BarrierMode.Hybrid, BarrierMode.PerQueryGlobal, BarrierMode.SharedGlobal)

  private def genActs(k: Int): Gen[Map[Int, Int]] =
    Gen.nonEmptyContainerOf[Set, Int](Gen.choose(0, k - 1))
      .flatMap(ws => Gen.sequence[List[(Int, Int)], (Int, Int)](ws.toList.map(w => Gen.choose(1, 20).map(w -> _))))
      .map(_.toMap)

  test("property: processor sharing conserves work in every barrier mode") {
    val gen = for {
      k <- Gen.choose(1, 16)
      nQ <- Gen.choose(1, 4)
      acts <- Gen.listOfN(nQ, genActs(k))
      tVertex <- Gen.choose(0.1, 3.0)
      tIterWorker <- Gen.choose(0.0, 2.0)
    } yield (k, acts, CostModel(tVertex = tVertex, tIterWorker = tIterWorker, tMsgRemote = 0.0,
      tFlushPair = 0.0, tBarrierBase = 0.0, tBarrierPerWorker = 0.0, tBarrierLocal = 0.0))
    check(Prop.forAllNoShrink(gen) { case (k, acts, c) =>
      // One iteration per query, no messages and free barriers: nothing
      // delays a query but the compute it shares with the others.
      val stats = TestFixtures.stats(acts.zipWithIndex.map { case (a, q) => Oracle.IterStat(q, 0, a, Map.empty) })
      val work = acts.map(_.map { case (w, n) => w -> (c.tIterWorker + n * c.tVertex) })
      val perWorker = work.flatten.groupMapReduce(_._1)(_._2)(_ + _)
      modes.forall { mode =>
        val r = LatencySimulator.simulateBatch(stats, k, mode, c)
        math.abs(r.makespan - perWorker.values.max) < 1e-9 &&
          work.indices.forall(q => r.latency(q) >= work(q).values.max - 1e-9)
      }
    }, minTests = 300)
  }

  test("property: a query running alone takes the sum of its iterations' compute and post-compute delay") {
    val genIter = (k: Int) => for {
      acts <- genActs(k)
      pairs <- Gen.listOf(Gen.zip(Gen.choose(0, k - 1), Gen.choose(0, k - 1), Gen.choose(1, 30)))
    } yield (acts, pairs.filter(p => p._1 != p._2).map(p => (p._1, p._2) -> p._3).toMap)
    val gen = for {
      k <- Gen.choose(1, 16)
      nIter <- Gen.choose(1, 5)
      iters <- Gen.listOfN(nIter, genIter(k))
    } yield (k, iters)
    val c = CostModel.default
    check(Prop.forAllNoShrink(gen) { case (k, iters) =>
      val records = iters.zipWithIndex.map { case ((a, m), i) => Oracle.IterStat(7, i, a, m) }.toVector
      modes.forall { mode =>
        val expected = records.map { s =>
          val involvedWorkers = s.actByWorker.keySet ++ s.remoteMsgs.keySet.flatMap { case (a, b) => Set(a, b) }
          val isLocal = s.remoteMsgs.isEmpty && s.actByWorker.size <= 1
          val compute = involvedWorkers.map(w => c.tIterWorker + s.actByWorker.getOrElse(w, 0) * c.tVertex).max
          val comm = if (s.remoteMsgs.isEmpty) 0.0 else c.tFlushPair * s.remoteMsgs.size + c.tMsgRemote * s.remoteMsgs.values.sum
          val barrier =
            if (mode == BarrierMode.Hybrid && isLocal) c.tBarrierLocal
            else if (mode == BarrierMode.Hybrid) c.tBarrierBase + c.tBarrierPerWorker * involvedWorkers.size
            else c.tBarrierBase + c.tBarrierPerWorker * k
          compute + comm + barrier
        }.sum
        val r = LatencySimulator.simulateBatch(TestFixtures.stats(records), k, mode, c)
        math.abs(r.latency(7) - expected) < 1e-9 && math.abs(r.makespan - expected) < 1e-9
      }
    }, minTests = 300)
  }

  test("property: the simulator agrees bit for bit with the oracle's in every barrier mode") {
    // Active vertices per worker and remote messages per worker pair.
    type Row = (Map[Int, Int], Map[(Int, Int), Int])
    // Workers up to k - 1 <= 63, with k - 1 drawn often so that rows share it.
    def genRow(k: Int): Gen[Row] = {
      val worker = Gen.frequency(4 -> Gen.choose(0, k - 1), 1 -> Gen.const(k - 1))
      for {
        nw <- Gen.frequency(2 -> Gen.const(1), 1 -> Gen.choose(1, 6))
        ws <- Gen.listOfN(nw, worker)
        acts <- Gen.sequence[List[(Int, Int)], (Int, Int)](ws.distinct.map(w => Gen.choose(1, 20).map(w -> _)))
        pairs <- Gen.frequency(1 -> Gen.const(Nil), 1 -> Gen.listOf(Gen.zip(worker, worker, Gen.choose(1, 30))))
      } yield (acts.toMap, pairs.filter(p => p._1 != p._2).take(6).map(p => (p._1, p._2) -> p._3).toMap)
    }
    val genCost = Gen.oneOf(Gen.const(CostModel.default), for {
      Seq(tVertex, tIterWorker, tMsgRemote, tFlushPair, tBarrierBase, tBarrierPerWorker) <-
        Gen.listOfN(6, Gen.choose(1e-6, 2.0))
      localShare <- Gen.choose(1e-3, 1.0)
    } yield CostModel(tVertex = tVertex, tIterWorker = tIterWorker, tMsgRemote = tMsgRemote,
      tFlushPair = tFlushPair, tBarrierBase = tBarrierBase, tBarrierPerWorker = tBarrierPerWorker,
      tBarrierLocal = localShare * (tBarrierBase + tBarrierPerWorker)))
    val gen = for {
      k <- Gen.frequency(3 -> Gen.choose(1, 64), 1 -> Gen.const(64))
      nQ <- Gen.choose(0, 12)
      gaps <- Gen.listOfN(nQ, Gen.choose(1, 4))
      iters <- Gen.listOfN(nQ, Gen.choose(1, 6))
      rows <- Gen.sequence[List[List[Row]], List[Row]](iters.map(n => Gen.listOfN(n, genRow(k))))
      c <- genCost
    } yield {
      val qids = gaps.scanLeft(0)(_ + _).tail
      (k, qids.zip(rows).flatMap { case (q, its) =>
        its.zipWithIndex.map { case ((a, m), i) => Oracle.IterStat(q, i, a, m) }
      }, c)
    }
    check(Prop.forAllNoShrink(gen) { case (k, records, c) =>
      val stats = TestFixtures.stats(records)
      modes.forall(mode => bits(LatencySimulator.simulateBatch(stats, k, mode, c)) ==
        bits(Oracle.simulateBatch(stats, k, mode, c)))
    }, minTests = 500)
  }

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)
  private def bits(r: BatchSim): (Map[Int, Long], Long) = (r.latency.map { case (q, l) => q -> bits(l) }, bits(r.makespan))

  test("property: renaming workers keeps latencies and locality bit-identical and permutes worker loads") {
    val gen = for {
      k <- Gen.frequency(3 -> Gen.choose(1, 64), 1 -> Gen.const(64))
      nQ <- Gen.choose(1, 6)
      at = Gen.zip(Gen.choose(0, nQ - 1), Gen.choose(0, 5), Gen.choose(0, 39))
      acts <- Gen.listOf(at.map { case (q, i, v) => ActRec(q, i, v) })
      msgs <- Gen.listOf(Gen.zip(at, Gen.choose(0, 39)).map { case ((q, i, v), u) => MsgRec(q, i, v, u) })
      assign <- Gen.listOfN(40, Gen.choose(0, k - 1))
      seed <- Gen.long
    } yield (k, TestFixtures.trace(acts, msgs), assign.toArray, new scala.util.Random(seed).shuffle((0 until k).toVector))
    val c = CostModel.default
    check(Prop.forAllNoShrink(gen) { case (k, t, assign, perm) =>
      val a = IterationStats.compute(t, assign(_))
      val b = IterationStats.compute(t, v => perm(assign(v)))
      val (la, lb) = (Metrics.workerLoads(a, k), Metrics.workerLoads(b, k))
      // Not the imbalance: `Metrics.imbalanceOfLoads` adds the deviations in
      // worker order, so a renaming can change its last bits (k = 12, one
      // activation on worker 1 or on worker 11: 1.8333333333333326 or ...335).
      modes.forall(m => bits(LatencySimulator.simulateBatch(a, k, m, c)) == bits(LatencySimulator.simulateBatch(b, k, m, c))) &&
        bits(Metrics.avgQueryLocality(a)) == bits(Metrics.avgQueryLocality(b)) && (0 until k).forall(w => lb(perm(w)) == la(w))
    }, minTests = 300)
  }

  test("property: Karger clustering never exceeds the target on connected graphs") {
    check(Prop.forAll(Gen.choose(2, 12), Gen.choose(1, 6), Gen.choose(0L, 1000L)) { (n, target, seed) =>
      val qids = (0 until n).toVector
      val overlaps = (0 until n - 1).map(i => (i, i + 1) -> 5L).toMap // a path: connected
      val c = KargerClustering.cluster(qids, TestFixtures.overlaps(qids, overlaps), target, new scala.util.Random(seed))
      c.distinct.length <= math.max(target, 1) && c.length == n
    })
  }

  test("property: hash partitioner stays in range and is deterministic") {
    val g = repro.TestFixtures.tiny
    check(Prop.forAll(Gen.choose(1, 12)) { k =>
      val a = repro.partition.HashPartitioner.assign(g, k)
      a.forall(w => w >= 0 && w < k) &&
        a.toSeq == repro.partition.HashPartitioner.assign(g, k).toSeq
    }, minTests = 12)
  }

  test("property: grid edge weights are symmetric for arbitrary vertex pairs") {
    val g = repro.TestFixtures.tiny
    check(Prop.forAll(Gen.choose(0, g.numVertices - 2)) { v =>
      g.edgeWeight(v, v + 1) == g.edgeWeight(v + 1, v)
    })
  }
}
