package repro.core

import repro.SparkSpec
import repro.graph.Datasets
import repro.partition.{Metrics, PartitionMetrics, Partitioners}

/** Selector tests: criterion choice, argmin behaviour, tie-breaking, and the
  * paper's granularity heuristics.
  */
class ParselSpec extends SparkSpec {

  private def metric(partitioner: String, commCost: Long, cut: Long,
      balance: Double = 1.0): PartitionMetrics =
    PartitionMetrics("d", partitioner, 16, 1000, 500, balance, 10, cut, commCost, 0.0)

  test("criterion: EdgeBound reads CommCost, VertexBound reads Cut") {
    val m = metric("x", commCost = 42, cut = 7)
    assert(Parsel.criterion(m, Parsel.EdgeBound) == 42)
    assert(Parsel.criterion(m, Parsel.VertexBound) == 7)
  }

  test("algo kinds carry the paper's class assignment") {
    assert(Parsel.PR.algoClass == Parsel.EdgeBound)
    assert(Parsel.CC.algoClass == Parsel.EdgeBound)
    assert(Parsel.SSSP.algoClass == Parsel.EdgeBound)
    assert(Parsel.TR.algoClass == Parsel.VertexBound)
    assert(Parsel.algoKinds.size == 4)
  }

  test("selectFromMetrics minimizes the class criterion") {
    val rows = Seq(
      metric("A", commCost = 100, cut = 1),
      metric("B", commCost = 50, cut = 99),
      metric("C", commCost = 70, cut = 2))
    assert(Parsel.selectFromMetrics(rows, Parsel.EdgeBound).partitioner == "B")
    assert(Parsel.selectFromMetrics(rows, Parsel.VertexBound).partitioner == "A")
  }

  test("selectFromMetrics breaks ties by balance") {
    val rows = Seq(
      metric("A", commCost = 50, cut = 5, balance = 2.0),
      metric("B", commCost = 50, cut = 5, balance = 1.1))
    assert(Parsel.selectFromMetrics(rows, Parsel.EdgeBound).partitioner == "B")
  }

  test("selectFromMetrics rejects empty input") {
    assertThrows[IllegalArgumentException](
      Parsel.selectFromMetrics(Nil, Parsel.EdgeBound))
  }

  test("select end-to-end equals manual metric argmin") {
    val edges   = repro.graph.SynthGraphs.rmat(spark, scale = 9, numEdges = 2000, seed = 81).cache()
    val metrics = Metrics.computeAll("rmat", edges, 16)
    val pick    = Parsel.selectFromMetrics(metrics, Parsel.EdgeBound)
    assert(pick == metrics.minBy(m => (m.commCost, m.balance)))
    assert(metrics.map(_.partitioner) == Partitioners.all.map(_.name))
    edges.unpersist()
  }

  test("select restricted to a candidate subset stays inside it") {
    val edges      = repro.graph.SynthGraphs.rmat(spark, scale = 8, numEdges = 500, seed = 82)
    val candidates = Seq(Partitioners.SC, Partitioners.DC)
    val pick = Parsel.selectFromMetrics(Metrics.computeAll("rmat", edges, 8, candidates), Parsel.VertexBound)
    assert(candidates.map(_.name).contains(pick.partitioner))
  }

  test("granularity: PR and SSSP stay coarse regardless of size") {
    for (edges <- Seq(1L, 1000000L, 100000000L)) {
      assert(Parsel.granularity(Parsel.PR, edges, 100000000L, 128, 256) == 128)
      assert(Parsel.granularity(Parsel.SSSP, edges, 100000000L, 128, 256) == 128)
    }
  }

  test("granularity: TR always prefers fine grain") {
    assert(Parsel.granularity(Parsel.TR, 1L, 100L, 128, 256) == 256)
  }

  test("granularity: CC goes fine only on large graphs") {
    val largest = 200000000L
    assert(Parsel.granularity(Parsel.CC, largest, largest, 128, 256) == 256)
    assert(Parsel.granularity(Parsel.CC, largest / 2, largest, 128, 256) == 256)
    assert(Parsel.granularity(Parsel.CC, largest / 100, largest, 128, 256) == 128)
  }

  test("granularity heuristic separates algorithms as the paper found") {
    val largest = Datasets.all.map(_.paperEdges).max
    val follow  = Datasets.byName("follow-dec").paperEdges
    val road    = Datasets.byName("RoadNet-PA").paperEdges
    assert(Parsel.granularity(Parsel.PR, follow, largest, 128, 256) == 128)
    assert(Parsel.granularity(Parsel.TR, follow, largest, 128, 256) == 256)
    assert(Parsel.granularity(Parsel.CC, follow, largest, 128, 256) == 256)
    assert(Parsel.granularity(Parsel.CC, road, largest, 128, 256) == 128)
  }
}
