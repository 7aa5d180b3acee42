package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
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
    val m = Metrics.compute("square", df(square), Partitioners.SC, 2)
    assert(m.numEdges == 4)
    assert(m.numVertices == 4)
    assert(m.balance == 1.0)
    assert(m.nonCut == 0)
    assert(m.cut == 4)
    assert(m.commCost == 8)
    assert(m.partStDev == 0.0)
  }

  test("single-partition metrics: nothing is cut") {
    val m = Metrics.compute("square", df(square), Partitioners.RVC, 1)
    assert(m.balance == 1.0)
    assert(m.nonCut == 4)
    assert(m.cut == 0)
    assert(m.commCost == 0)
    assert(m.partStDev == 0.0)
  }

  test("empty partitions count towards balance and stdev") {
    // Two edges from even sources on 4 partitions via SC: partitions 1,3 empty.
    val edges = Seq((0L, 2L), (2L, 0L))
    val m     = Metrics.compute("pair", df(edges), Partitioners.SC, 4)
    assert(m.numEdges == 2)
    assert(m.balance == 2.0) // max 1 vs mean 0.5
    assert(m.partStDev == 0.5)
    assert(m.cut == 2) // both vertices in partitions 0 and 2
    assert(m.commCost == 4)
  }

  test("numParts must be positive") {
    assertThrows[IllegalArgumentException](
      Metrics.compute("x", df(square), Partitioners.RVC, 0))
  }

  test("withPid appends the strategy's assignment") {
    val assigned = Metrics.withPid(df(square), Partitioners.DC, 3).collect()
    assigned.foreach { r =>
      assert(r.getInt(2) == Partitioners.DC.pid(r.getLong(0), r.getLong(1), 3))
    }
  }

  test("partitionSizes pads empty partitions with zero") {
    val assigned = Metrics.withPid(df(Seq((0L, 1L))), Partitioners.SC, 5)
    assert(Metrics.partitionSizes(assigned, 5).toSeq == Seq(1L, 0L, 0L, 0L, 0L))
  }

  // --- agreement with the naive in-memory reference, all six strategies ---

  private val sample = Reference.randomEdges(numVertices = 60, numEdges = 200, seed = 21)

  for (s <- Partitioners.all; n <- Seq(3, 8, 16)) {
    test(s"${s.name} @ $n partitions matches the in-memory reference metrics") {
      val m = Metrics.compute("sample", df(sample), s, n)
      val assigned = sample.map { case (a, b) => (a, b, s.pid(a, b, n)) }
      val (balance, nonCut, cut, commCost, stdev) = Reference.metrics(assigned, n)
      assert(math.abs(m.balance - balance) < 1e-9)
      assert(m.nonCut == nonCut)
      assert(m.cut == cut)
      assert(m.commCost == commCost)
      assert(math.abs(m.partStDev - stdev) < 1e-9)
    }
  }

  // --- DuckDB oracle equivalence of the Catalyst metric queries ---

  private val replicaSql =
    """SELECT
      |  sum(CASE WHEN replicas = 1 THEN 1 ELSE 0 END) AS noncut,
      |  sum(CASE WHEN replicas > 1 THEN 1 ELSE 0 END) AS cut,
      |  sum(CASE WHEN replicas > 1 THEN replicas ELSE 0 END) AS commcost
      |FROM (
      |  SELECT v, count(DISTINCT pid) AS replicas
      |  FROM (SELECT src AS v, pid FROM assigned
      |        UNION SELECT dst AS v, pid FROM assigned) endpoints
      |  GROUP BY v
      |) r""".stripMargin

  for (s <- Partitioners.all) {
    test(s"${s.name}: replica metrics agree with DuckDB over the same assignment") {
      val assigned = Metrics.withPid(df(sample), s, 8).cache()
      val sparkSide = Metrics.replicaCounts(assigned).agg(
        sum(when(col("replicas") === 1, 1L).otherwise(0L)).as("noncut"),
        sum(when(col("replicas") > 1, 1L).otherwise(0L)).as("cut"),
        coalesce(sum(when(col("replicas") > 1, col("replicas"))), lit(0L)).as("commcost"))
      Oracle.assertEquivalent(sparkSide, replicaSql, "assigned" -> assigned)
      assigned.unpersist()
    }

    test(s"${s.name}: per-partition sizes agree with DuckDB over the same assignment") {
      val assigned  = Metrics.withPid(df(sample), s, 8).cache()
      val sparkSide = assigned.groupBy("pid").agg(count(lit(1)).as("n"))
      Oracle.assertEquivalent(
        sparkSide,
        "SELECT pid, count(*) AS n FROM assigned GROUP BY pid",
        "assigned" -> assigned)
      assigned.unpersist()
    }
  }

  // --- structural invariants over a generated graph ---

  private lazy val rmatEdges =
    repro.graph.SynthGraphs.rmat(spark, scale = 9, numEdges = 1500, seed = 33).cache()

  for (s <- Partitioners.all) {
    test(s"${s.name}: invariants hold on an RMAT graph @ 16 partitions") {
      val m = Metrics.compute("rmat", rmatEdges, s, 16)
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
    val rvc  = Metrics.compute("sym", sym, Partitioners.RVC, 16)
    val crvc = Metrics.compute("sym", sym, Partitioners.CRVC, 16)
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
    val row = Metrics.compute("square", df(square), Partitioners.SC, 2).tableRow
    for (frag <- Seq("square", "SC", "1.00", "8")) assert(row.contains(frag))
  }
}
