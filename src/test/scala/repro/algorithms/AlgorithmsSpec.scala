package repro.algorithms

import org.apache.spark.graphx.{Graph, lib => gxlib}
import org.apache.spark.sql.DataFrame
import repro.{Reference, SparkSpec}
import repro.partition.Partitioners

/** Correctness of the four from-scratch algorithms against (a) naive
  * in-memory references and (b) the GraphX library baselines, plus the
  * study's load-bearing property: results are invariant under the
  * partitioning strategy.
  */
class AlgorithmsSpec extends SparkSpec {

  private def df(edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  private def graphOf(edges: Seq[(Long, Long)], parts: Int = 4): Graph[Int, Int] =
    GraphBuilder.partitioned(df(edges), Partitioners.RVC, parts)

  private val chain    = Seq((0L, 1L), (1L, 2L), (2L, 3L))
  private val sample   = Reference.randomEdges(numVertices = 80, numEdges = 400, seed = 51)
  private lazy val sampleGraph = graphOf(sample).cache()

  // --- GraphBuilder ---

  test("GraphBuilder: edge partitions follow the strategy") {
    for (s <- Partitioners.all) {
      val g = GraphBuilder.partitioned(df(sample), s, 8)
      val placed = g.edges
        .mapPartitionsWithIndex((pid, iter) => iter.map(e => (pid, e.srcId, e.dstId)))
        .collect()
      placed.foreach { case (pid, src, dst) =>
        assert(pid == s.pid(src, dst, 8), s"${s.name}: edge ($src,$dst) on wrong partition")
      }
    }
  }

  test("GraphBuilder: preserves the edge multiset") {
    val g = GraphBuilder.partitioned(df(sample), Partitioners.TwoD, 8)
    val back = g.edges.map(e => (e.srcId, e.dstId)).collect().toSet
    assert(back == sample.toSet)
  }

  test("GraphBuilder.withGraph: leaves no RDD persisted, after return or throw") {
    def persisted = spark.sparkContext.getPersistentRDDs.keySet.toSet
    // Ids, not a count: the ContextCleaner may drop other RDDs meanwhile.
    def leftBy(run: => Unit) = { val before = persisted; run; persisted -- before }
    val built = leftBy(GraphBuilder.withGraph(df(sample), Partitioners.TwoD, 4) { g =>
      assert(g.edges.count() == sample.size)
    })
    assert(built.isEmpty, s"left persisted: $built")
    val failed = leftBy(assertThrows[IllegalStateException](
      GraphBuilder.withGraph(df(sample), Partitioners.TwoD, 4) { g =>
        g.vertices.count()
        throw new IllegalStateException("body failed")
      }))
    assert(failed.isEmpty, s"left persisted: $failed")
  }

  // --- PageRank ---

  test("PageRank matches the in-memory reference on a chain") {
    val ranks = PageRankAlg.run(graphOf(chain), numIter = 10).vertices.collectAsMap()
    val ref   = Reference.pageRank(chain, iters = 10)
    for ((v, r) <- ref) assert(math.abs(ranks(v) - r) < 1e-10, s"vertex $v")
  }

  test("PageRank matches the in-memory reference on a random graph") {
    val ranks = PageRankAlg.run(sampleGraph, numIter = 10).vertices.collectAsMap()
    val ref   = Reference.pageRank(sample, iters = 10)
    for ((v, r) <- ref) assert(math.abs(ranks(v) - r) < 1e-8, s"vertex $v")
  }

  test("PageRank matches the GraphX library baseline") {
    val ours     = PageRankAlg.run(sampleGraph, numIter = 10).vertices.collectAsMap()
    val baseline = gxlib.PageRank.run(sampleGraph, numIter = 10).vertices.collectAsMap()
    for ((v, r) <- baseline) assert(math.abs(ours(v) - r) < 1e-8, s"vertex $v")
  }

  test("PageRank: sink vertices settle at resetProb") {
    val ranks = PageRankAlg.run(graphOf(Seq((1L, 0L), (2L, 0L))), numIter = 5).vertices.collectAsMap()
    assert(math.abs(ranks(1L) - 0.15) < 1e-12)
    assert(math.abs(ranks(2L) - 0.15) < 1e-12)
  }

  test("PageRank rejects bad arguments") {
    assertThrows[IllegalArgumentException](PageRankAlg.run(sampleGraph, 0))
  }

  // --- Connected Components ---

  test("CC labels match the union-find reference") {
    val ours = ConnectedComponentsAlg.run(sampleGraph).vertices.collectAsMap()
    val ref  = Reference.components(sample)
    for ((v, label) <- ref) assert(ours(v) == label, s"vertex $v")
  }

  test("CC matches the GraphX library baseline") {
    val ours     = ConnectedComponentsAlg.run(sampleGraph).vertices.collectAsMap()
    val baseline = gxlib.ConnectedComponents.run(sampleGraph).vertices.collectAsMap()
    assert(ours == baseline)
  }

  test("CC on disjoint fragments finds every component") {
    val fragments = Seq((0L, 1L), (2L, 3L), (4L, 5L), (6L, 7L))
    assert(ConnectedComponentsAlg.count(graphOf(fragments)) == 4)
  }

  test("CC treats direction as irrelevant (weak components)") {
    val directed = Seq((3L, 2L), (2L, 1L), (5L, 4L))
    val labels   = ConnectedComponentsAlg.run(graphOf(directed)).vertices.collectAsMap()
    assert(labels(3L) == 1L && labels(2L) == 1L && labels(1L) == 1L)
    assert(labels(5L) == 4L && labels(4L) == 4L)
  }

  // --- Triangle Count ---

  test("TriangleCount totals match brute force on random graphs") {
    for (seed <- 61 to 65) {
      val edges = Reference.randomEdges(numVertices = 40, numEdges = 250, seed = seed)
      assert(TriangleCountAlg.total(graphOf(edges)) == Reference.triangles(edges),
        s"seed $seed")
    }
  }

  test("TriangleCount per-vertex counts match brute force") {
    val edges = Reference.randomEdges(numVertices = 30, numEdges = 160, seed = 66)
    val ours  = TriangleCountAlg.run(graphOf(edges)).vertices.collectAsMap()
    val ref   = Reference.trianglesPerVertex(edges)
    for ((v, c) <- ref) assert(ours(v) == c, s"vertex $v")
  }

  test("TriangleCount matches the GraphX library baseline") {
    val ours     = TriangleCountAlg.run(sampleGraph).vertices.collectAsMap()
    val baseline = gxlib.TriangleCount.run(sampleGraph).vertices.collectAsMap()
    assert(ours == baseline)
  }

  test("TriangleCount: a triangle with reciprocated edges counts once") {
    val tri = Seq((0L, 1L), (1L, 0L), (1L, 2L), (2L, 1L), (2L, 0L), (0L, 2L))
    assert(TriangleCountAlg.total(graphOf(tri)) == 1)
  }

  test("TriangleCount: triangle-free graphs count zero") {
    assert(TriangleCountAlg.total(graphOf(chain)) == 0)
  }

  // The count runs on each strategy's own edge layout, so each input below is
  // checked under all six strategies at three partition counts. The GraphX
  // baseline does not depend on the layout (it rebuilds its canonical edges),
  // so it is checked once per input, against the same reference.
  private def checkTriangles(edges: Seq[(Long, Long)]): Unit = {
    val ref = Reference.trianglesPerVertex(edges)
    val baseline = gxlib.TriangleCount.run(graphOf(edges)).vertices.collectAsMap()
    assert(baseline == ref, "graphx.lib baseline")
    for (s <- Partitioners.all; parts <- Seq(3, 8, 16)) {
      val ours = TriangleCountAlg.run(GraphBuilder.partitioned(df(edges), s, parts))
        .vertices.collectAsMap()
      assert(ours == ref, s"${s.name} at $parts partitions")
    }
  }

  // A random graph with some edges reversed (reciprocated pairs), some
  // repeated and a few self-loops, before any relabelling.
  private val awkward: Seq[(Long, Long)] = {
    val base = Reference.randomEdges(numVertices = 24, numEdges = 90, seed = 67)
    base ++ base.zipWithIndex.collect {
      case ((a, b), i) if i % 3 == 0 => (b, a)
      case (e, i) if i % 5 == 1      => e
    } ++ base.take(4) ++ Seq((3L, 3L), (5L, 5L), (5L, 5L))
  }

  test("TriangleCount: duplicate directed edges count once, under every strategy") {
    val dups = Reference.randomEdges(numVertices = 24, numEdges = 90, seed = 68)
    checkTriangles(dups ++ dups.take(40) ++ dups.take(10))
  }

  test("TriangleCount: reciprocated pairs split across partitions count once") {
    val split = awkward.filter { case (a, b) => awkward.contains((b, a)) && a < b }
      .count { case (a, b) =>
        Partitioners.RVC.pid(a, b, 8) != Partitioners.RVC.pid(b, a, 8) &&
          Partitioners.TwoD.pid(a, b, 8) != Partitioners.TwoD.pid(b, a, 8)
      }
    assert(split > 0, "no reciprocated pair is split under both RVC and 2D")
    checkTriangles(awkward)
  }

  test("TriangleCount: self-loops add no triangles") {
    val loops = awkward.map(_._1).distinct.take(6).map(v => (v, v))
    checkTriangles(awkward ++ loops ++ loops)
  }

  test("TriangleCount: negative IDs and IDs near Long.MaxValue") {
    val relabel: Long => Long = v => (v % 3) match {
      case 0 => -1L - v * 7919L
      case 1 => Long.MaxValue - v
      case _ => Long.MinValue + 1 + v
    }
    checkTriangles(awkward.map { case (a, b) => (relabel(a), relabel(b)) })
  }

  test("TriangleCount: a hub with many leaves (very unequal neighbour lists)") {
    val hub    = -7L
    val leaves = (1L to 200L)
    val spokes = leaves.map(l => (hub, l)) ++ leaves.filter(_ % 4 == 0).map(l => (l, hub))
    val rim    = leaves.filter(_ % 2 == 0).map(l => (l, l + 1)) ++
      leaves.filter(_ % 10 == 0).map(l => (l + 1, l + 3))
    checkTriangles(spokes ++ rim)
  }

  test("TriangleCount: the counting graph keeps the strategy's edge layout") {
    val withCopies = sample ++ sample.take(50)
    for (s <- Partitioners.all) {
      val g = TriangleCountAlg.deduplicated(GraphBuilder.partitioned(df(withCopies), s, 8))
      val placed = g.edges
        .mapPartitionsWithIndex((pid, iter) => iter.map(e => (pid, e.srcId, e.dstId)))
        .collect()
      placed.foreach { case (pid, src, dst) =>
        assert(pid == s.pid(src, dst, 8), s"${s.name}: edge ($src,$dst) on wrong partition")
      }
      assert(placed.map(p => (p._2, p._3)).sorted.toSeq == sample.sorted,
        s"${s.name}: not one copy per directed edge")
    }
  }

  // --- SSSP ---

  test("SSSP matches the BFS reference") {
    val landmark = sample.head._2
    val ours = ShortestPathsAlg.run(sampleGraph, Seq(landmark)).vertices.collectAsMap()
    val ref  = Reference.distancesTo(sample, landmark)
    for ((v, d) <- ref) assert(ours(v).get(landmark) == Some(d), s"vertex $v")
    // Unreachable vertices carry no entry for the landmark.
    for ((v, m) <- ours if !ref.contains(v)) assert(!m.contains(landmark), s"vertex $v")
  }

  test("SSSP matches the GraphX library baseline") {
    val landmarks = Seq(sample.head._1, sample.last._2)
    val ours     = ShortestPathsAlg.run(sampleGraph, landmarks).vertices.collectAsMap()
    val baseline = gxlib.ShortestPaths.run(sampleGraph, landmarks).vertices.collectAsMap()
    assert(ours == baseline)
  }

  test("SSSP on a chain: distances follow edge direction") {
    val d = ShortestPathsAlg.run(graphOf(chain), Seq(3L)).vertices.collectAsMap()
    assert(d(0L) == Map(3L -> 3) && d(1L) == Map(3L -> 2) &&
      d(2L) == Map(3L -> 1) && d(3L) == Map(3L -> 0))
  }

  test("SSSP requires at least one landmark") {
    assertThrows[IllegalArgumentException](
      ShortestPathsAlg.run(sampleGraph, Seq.empty))
  }

  // --- the study's premise: partitioning never changes results ---

  private lazy val invarianceEdges =
    repro.graph.SynthGraphs.rmat(spark, scale = 9, numEdges = 2000, seed = 71).cache()

  private lazy val rvcResults = {
    val g = GraphBuilder.partitioned(invarianceEdges, Partitioners.RVC, 8).cache()
    val pr   = PageRankAlg.run(g, 5).vertices.collectAsMap()
    val cc   = ConnectedComponentsAlg.run(g).vertices.collectAsMap()
    val tr   = TriangleCountAlg.run(g).vertices.collectAsMap()
    val sssp = ShortestPathsAlg.run(g, Seq(0L)).vertices.collectAsMap()
    g.unpersist(blocking = false)
    (pr, cc, tr, sssp)
  }

  for (s <- Partitioners.all.filterNot(_ == Partitioners.RVC)) {
    test(s"partitioner invariance: all four algorithms agree under ${s.name}") {
      val g = GraphBuilder.partitioned(invarianceEdges, s, 8).cache()
      val (refPr, refCc, refTr, refSssp) = rvcResults
      val pr = PageRankAlg.run(g, 5).vertices.collectAsMap()
      for ((v, r) <- refPr) assert(math.abs(pr(v) - r) < 1e-9, s"PR vertex $v")
      assert(ConnectedComponentsAlg.run(g).vertices.collectAsMap() == refCc, "CC")
      assert(TriangleCountAlg.run(g).vertices.collectAsMap() == refTr, "TR")
      assert(ShortestPathsAlg.run(g, Seq(0L)).vertices.collectAsMap() == refSssp, "SSSP")
      g.unpersist(blocking = false)
    }
  }
}
