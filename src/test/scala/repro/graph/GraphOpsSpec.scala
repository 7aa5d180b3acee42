package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Characterization-op tests against hand-counted graphs and DuckDB SQL. */
class GraphOpsSpec extends SparkSpec {

  private def df(edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  private val diamond = Seq( // two triangles sharing edge 1-2, all reciprocated
    (0L, 1L), (1L, 0L), (1L, 2L), (2L, 1L), (0L, 2L), (2L, 0L),
    (1L, 3L), (3L, 1L), (2L, 3L), (3L, 2L))

  private val directedChain = Seq((0L, 1L), (1L, 2L), (2L, 3L))

  test("degrees: one row per distinct endpoint") {
    assert(GraphOps.degrees(df(diamond)).count() == 4)
    assert(GraphOps.degrees(df(directedChain)).count() == 4)
  }

  test("symmetryPct: fully reciprocated graph measures 100") {
    assert(GraphOps.symmetryPct(df(diamond)) == 100.0)
  }

  test("symmetryPct: a directed chain measures 0") {
    assert(GraphOps.symmetryPct(df(directedChain)) == 0.0)
  }

  test("symmetryPct: half-reciprocated graph measures 50") {
    val half = Seq((0L, 1L), (1L, 0L), (2L, 3L), (4L, 5L))
    assert(GraphOps.symmetryPct(df(half)) == 50.0)
  }

  private def profileOf(edges: Seq[(Long, Long)]) =
    GraphOps.profile("g", df(edges), numParts = 2, includeDiameter = false)

  test("zeroInPct / zeroOutPct on a directed chain") {
    // 0 has no in-edge; 3 has no out-edge; 4 vertices.
    val p = profileOf(directedChain)
    assert(p.vertices == 4)
    assert(p.zeroInPct == 25.0)
    assert(p.zeroOutPct == 25.0)
  }

  test("zeroIn/zeroOut are 0 on symmetric graphs") {
    val p = profileOf(diamond)
    assert(p.zeroInPct == 0.0)
    assert(p.zeroOutPct == 0.0)
  }

  test("degrees: full outer join covers one-sided vertices") {
    val rows = GraphOps.degrees(df(directedChain)).collect()
      .map(r => r.getLong(0) -> ((r.getLong(1), r.getLong(2)))).toMap
    assert(rows(0L) == ((0L, 1L)))
    assert(rows(1L) == ((1L, 1L)))
    assert(rows(3L) == ((1L, 0L)))
  }

  test("degrees agree with DuckDB") {
    val edges = df(repro.Reference.randomEdges(40, 120, seed = 31)).cache()
    val sparkSide = GraphOps.degrees(edges)
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT v, coalesce(i.inDeg, 0) AS inDeg, coalesce(o.outDeg, 0) AS outDeg
        |FROM (SELECT src AS v FROM edges UNION SELECT dst FROM edges) vs
        |LEFT JOIN (SELECT dst, count(*) AS inDeg FROM edges GROUP BY dst) i ON i.dst = vs.v
        |LEFT JOIN (SELECT src, count(*) AS outDeg FROM edges GROUP BY src) o ON o.src = vs.v
        |""".stripMargin,
      "edges" -> edges)
    edges.unpersist()
  }

  test("symmetry count agrees with DuckDB") {
    val edges = df(repro.Reference.randomEdges(30, 150, seed = 32)).cache()
    val total = edges.count()
    val sparkSide = edges
      .intersect(edges.select(col("dst").as("src"), col("src").as("dst")))
      .agg(count(lit(1)).as("reciprocated"))
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT count(*) AS reciprocated
        |FROM edges e JOIN edges r ON e.src = r.dst AND e.dst = r.src""".stripMargin,
      "edges" -> edges)
    assert(total > 0)
    edges.unpersist()
  }

  test("sizeOnDiskBytes counts tab-separated text bytes") {
    // "0\t1\n" (4) + "10\t200\n" (7)
    assert(GraphOps.sizeOnDiskBytes(df(Seq((0L, 1L), (10L, 200L)))) == 11)
    assert(GraphOps.sizeOnDiskBytes(df(Seq.empty[(Long, Long)])) == 0)
  }

  private def diameterOf(edges: Seq[(Long, Long)]) =
    GraphOps.profile("g", df(edges), numParts = 4).diameter

  test("pseudoDiameter: symmetric path of 6 vertices has diameter 5") {
    val path = (0L until 5L).flatMap(i => Seq((i, i + 1), (i + 1, i)))
    assert(diameterOf(path) == Some(5))
  }

  test("pseudoDiameter: multi-component graph reports None (paper's ∞)") {
    val twoComponents = Seq((0L, 1L), (1L, 0L), (5L, 6L), (6L, 5L))
    assert(diameterOf(twoComponents).isEmpty)
  }

  test("pseudoDiameter: works on directed single-component graphs via undirected view") {
    assert(diameterOf(directedChain) == Some(3))
  }

  test("profile: full characterization of the diamond graph") {
    val p = GraphOps.profile("diamond", df(diamond), numParts = 2)
    assert(p.vertices == 4)
    assert(p.edges == 10)
    assert(p.symmPct == 100.0)
    assert(p.triangles == 2)
    assert(p.components == 1)
    assert(p.diameter == Some(2))
    assert(p.sizeBytes == 40) // 10 edges, single-digit ids: 4 bytes each
  }

  test("profile: diameter renders as inf for fragmented graphs") {
    val frag = Seq((0L, 1L), (1L, 0L), (7L, 8L), (8L, 7L))
    val p    = GraphOps.profile("frag", df(frag), numParts = 2)
    assert(p.components == 2)
    assert(p.diameterStr == "inf")
    assert(p.tableRow.contains("inf"))
  }

  test("profile: includeDiameter=false skips the BFS sweeps") {
    val p = GraphOps.profile("diamond", df(diamond), numParts = 2, includeDiameter = false)
    assert(p.diameter.isEmpty)
    assert(p.triangles == 2)
  }
}
