package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import repro.{Oracle, Reference, SparkSpec}

/** Metric-layer tests: hand-computed tiny graphs, naive in-memory reference
  * agreement, and DuckDB oracle equivalence of the Catalyst computation.
  */
class MetricsSpec extends SparkSpec {

  private def df(edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  private val square = Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 0L))

  test("SC on a 4-cycle with 2 partitions: every vertex is cut") {
    val m = Metrics.computeAll("square", df(square), 2, Seq(Partitioners.SC)).head
    assert(m.numEdges == 4)
    assert(m.numVertices == 4)
    assert(m.balance == 1.0)
    assert(m.nonCut == 0)
    assert(m.cut == 4)
    assert(m.commCost == 8)
    assert(m.partStDev == 0.0)
  }

  test("single-partition metrics: nothing is cut") {
    val m = Metrics.computeAll("square", df(square), 1, Seq(Partitioners.RVC)).head
    assert(m.balance == 1.0)
    assert(m.nonCut == 4)
    assert(m.cut == 0)
    assert(m.commCost == 0)
    assert(m.partStDev == 0.0)
  }

  test("empty partitions count towards balance and stdev") {
    // Two edges from even sources on 4 partitions via SC: partitions 1,3 empty.
    val edges = Seq((0L, 2L), (2L, 0L))
    val m     = Metrics.computeAll("pair", df(edges), 4, Seq(Partitioners.SC)).head
    assert(m.numEdges == 2)
    assert(m.balance == 2.0) // max 1 vs mean 0.5
    assert(m.partStDev == 0.5)
    assert(m.cut == 2) // both vertices in partitions 0 and 2
    assert(m.commCost == 4)
  }

  test("numParts must be positive") {
    assertThrows[IllegalArgumentException](
      Metrics.computeAll("x", df(square), 0, Seq(Partitioners.RVC)).head)
  }

  test("an empty edge list gives one zero row per strategy") {
    val empty = df(Seq.empty)
    val rows  = Metrics.computeAll("empty", empty, 4)
    assert(rows.map(_.partitioner) == Partitioners.all.map(_.name))
    for (m <- rows :+ Metrics.computeAll("empty", empty, 4, Seq(Partitioners.SC)).head) {
      assert(m.numEdges == 0 && m.numVertices == 0)
      assert(m.nonCut == 0 && m.cut == 0 && m.commCost == 0)
      assert(m.balance == 1.0 && m.partStDev == 0.0)
    }
  }

  test("assign tags every edge with each strategy's index and pid") {
    val strategies = Seq(Partitioners.DC, Partitioners.TwoD)
    val assigned   = Metrics.assign(df(square), strategies, 3)
    assert(assigned.columns.toSeq == Seq("src", "dst", "s", "pid"))
    val rows = assigned.collect()
    assert(rows.map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSet ==
      (for ((a, b) <- square; s <- strategies.indices) yield (a, b, s)).toSet)
    assert(rows.length == square.size * strategies.size)
    rows.foreach { r =>
      assert(r.getInt(3) == strategies(r.getInt(2)).pid(r.getLong(0), r.getLong(1), 3))
    }
  }

  // --- agreement with the naive in-memory reference, all six strategies ---

  private val sample = Reference.randomEdges(numVertices = 60, numEdges = 200, seed = 21)

  private def assertMatchesReference(m: PartitionMetrics, s: Strategy, n: Int): Unit = {
    val assigned = sample.map { case (a, b) => (a, b, s.pid(a, b, n)) }
    val (balance, nonCut, cut, commCost, stdev) = Reference.metrics(assigned, n)
    assert(m.numEdges == sample.size)
    assert(m.numVertices == Reference.vertices(sample).size)
    assert(math.abs(m.balance - balance) < 1e-9)
    assert(m.nonCut == nonCut)
    assert(m.cut == cut)
    assert(m.commCost == commCost)
    assert(math.abs(m.partStDev - stdev) < 1e-9)
  }

  for (s <- Partitioners.all; n <- Seq(3, 8, 16)) {
    test(s"${s.name} @ $n partitions matches the in-memory reference metrics") {
      assertMatchesReference(Metrics.computeAll("sample", df(sample), n, Seq(s)).head, s, n)
    }
  }

  test("one computeAll call matches the in-memory reference for every strategy") {
    for (n <- Seq(3, 8, 16)) {
      val rows = Metrics.computeAll("sample", df(sample), n)
      assert(rows.map(_.partitioner) == Partitioners.all.map(_.name))
      Partitioners.all.zip(rows).foreach { case (s, m) => assertMatchesReference(m, s, n) }
    }
  }

  // --- DuckDB oracle equivalence of the Catalyst metric queries ---
  // The oracle reads the table computeAll aggregates, with all six strategies
  // in it; each test compares one strategy's rows of the production query.

  private lazy val assigned = Metrics.assign(df(sample), Partitioners.all, 8).cache()

  private def replicaSql(s: Int) =
    s"""SELECT s,
      |  sum(CASE WHEN replicas = 1 THEN 1 ELSE 0 END) AS nonCut,
      |  sum(CASE WHEN replicas > 1 THEN 1 ELSE 0 END) AS cut,
      |  sum(CASE WHEN replicas > 1 THEN replicas ELSE 0 END) AS commCost,
      |  count(*) AS numVertices
      |FROM (
      |  SELECT s, v, count(DISTINCT pid) AS replicas
      |  FROM (SELECT s, src AS v, pid FROM assigned
      |        UNION SELECT s, dst AS v, pid FROM assigned) endpoints
      |  GROUP BY s, v
      |) r
      |WHERE s = '$s'
      |GROUP BY s""".stripMargin

  for ((strategy, s) <- Partitioners.all.zipWithIndex) {
    test(s"${strategy.name}: replica metrics agree with DuckDB over the same assignment") {
      Oracle.assertEquivalent(Metrics.replicaSummary(assigned).where(col("s") === s),
        replicaSql(s), "assigned" -> assigned)
    }

    test(s"${strategy.name}: per-partition sizes agree with DuckDB over the same assignment") {
      Oracle.assertEquivalent(
        Metrics.partitionSizes(assigned).where(col("s") === s),
        s"SELECT s, pid, count(*) AS n FROM assigned WHERE s = '$s' GROUP BY s, pid",
        "assigned" -> assigned)
    }
  }

  // --- structural invariants over a generated graph ---

  private lazy val rmatEdges =
    repro.graph.SynthGraphs.rmat(spark, scale = 9, numEdges = 1500, seed = 33).cache()

  for (s <- Partitioners.all) {
    test(s"${s.name}: invariants hold on an RMAT graph @ 16 partitions") {
      val m = Metrics.computeAll("rmat", rmatEdges, 16, Seq(s)).head
      assert(m.nonCut + m.cut == m.numVertices, "replica breakdown covers all vertices")
      assert(m.cut == 0 || m.commCost >= 2 * m.cut, "each cut vertex has >= 2 replicas")
      assert(m.commCost <= 16L * m.cut, "replicas bounded by partition count")
      assert(m.balance >= 1.0 - 1e-9, "max is at least the mean")
      assert(m.partStDev >= 0.0)
      assert(m.numEdges == rmatEdges.count())
    }
  }

  test("CRVC never replicates more than RVC on a symmetric graph") {
    val sym = repro.graph.SynthGraphs.symmetrize(rmatEdges).cache()
    val rvc  = Metrics.computeAll("sym", sym, 16, Seq(Partitioners.RVC)).head
    val crvc = Metrics.computeAll("sym", sym, 16, Seq(Partitioners.CRVC)).head
    assert(crvc.commCost < rvc.commCost,
      s"CRVC (${crvc.commCost}) should collocate reciprocal edges vs RVC (${rvc.commCost})")
    sym.unpersist()
  }

  test("computeAll returns one row per strategy with a constant edge count") {
    val rows = Metrics.computeAll("rmat", rmatEdges, 8)
    assert(rows.map(_.partitioner) == Partitioners.all.map(_.name))
    assert(rows.map(_.numEdges).distinct.size == 1)
  }

  test("computeAll keeps the caller's cache and releases only its own") {
    val cached = df(square).cache()
    cached.count()
    Metrics.computeAll("square", cached, 2)
    assert(cached.storageLevel != StorageLevel.NONE)
    cached.unpersist()
    val uncached = df(square)
    Metrics.computeAll("square", uncached, 2)
    assert(uncached.storageLevel == StorageLevel.NONE)
  }

  test("tableRow formats all five metric columns") {
    val row = Metrics.computeAll("square", df(square), 2, Seq(Partitioners.SC)).head.tableRow
    for (frag <- Seq("square", "SC", "1.00", "8")) assert(row.contains(frag))
  }
}
