package repro.bench

import repro.SparkSpec
import repro.core.Experiments
import repro.partition.PartitionMetrics

/** Reproduces Table 2: partitioning metrics at 128 partitions over all nine
  * dataset analogues. Prints the full table (recorded against the paper's in
  * EXPERIMENTS.md) and asserts the regime the paper's analysis rests on.
  */
class Table2Bench extends SparkSpec {

  protected def numParts: Int = Experiments.PaperCoarse
  protected def tableName: String = "Table 2"

  protected lazy val rows: Seq[PartitionMetrics] =
    Experiments.metricsTable(spark, numParts)

  protected def byKey: Map[(String, String), PartitionMetrics] =
    rows.map(m => (m.dataset, m.partitioner) -> m).toMap

  test(s"print $tableName: metrics @ $numParts partitions") {
    Experiments.printMetricsTable(tableName, numParts, rows)
    assert(rows.size == 9 * 6)
  }

  test("hash partitioners (RVC/CRVC) stay balanced on every dataset") {
    // Paper: 1.00-1.03. At 1/100 scale the smallest datasets hold only a few
    // hundred edges per partition, so sampling noise loosens the bound.
    for (m <- rows if m.partitioner == "RVC" || m.partitioner == "CRVC") {
      assert(m.balance < 1.6, s"${m.dataset}/${m.partitioner}: balance ${m.balance}")
    }
  }

  test("RVC cuts nearly every vertex (paper: NonCut of ~tens out of millions)") {
    // Degree-1 vertices are NonCut under any strategy, and the 1/100-scale
    // analogues carry relatively more of them than the paper's graphs — the
    // bound is loose accordingly; the regime (a few percent vs the leaves'
    // ~50% under 1D) is what matters.
    for (m <- rows if m.partitioner == "RVC") {
      assert(m.nonCut.toDouble / m.numVertices < 0.12,
        s"${m.dataset}: RVC nonCut ${m.nonCut} of ${m.numVertices}")
    }
  }

  test("1D and SC collapse on superstar datasets: follow graphs are heavily imbalanced") {
    for (d <- Seq("follow-jul", "follow-dec"); p <- Seq("1D", "SC")) {
      val m = byKey((d, p))
      assert(m.balance > 2.0, s"$d/$p: balance ${m.balance}")
      assert(m.nonCut > byKey((d, "RVC")).nonCut * 10,
        s"$d/$p: nonCut ${m.nonCut} should dwarf RVC's")
    }
  }

  test("2D beats RVC on CommCost for the large social graphs (paper's PR winner)") {
    for (d <- Seq("Orkut", "socLiveJournal", "follow-jul", "follow-dec")) {
      assert(byKey((d, "2D")).commCost < byKey((d, "RVC")).commCost,
        s"$d: 2D should replicate less than RVC")
    }
  }

  test("CRVC beats RVC on CommCost on symmetric graphs (collocated reciprocal edges)") {
    for (d <- Seq("RoadNet-PA", "RoadNet-TX", "RoadNet-CA", "YouTube", "Orkut")) {
      assert(byKey((d, "CRVC")).commCost < byKey((d, "RVC")).commCost,
        s"$d: CRVC vs RVC")
    }
  }

  test("SC and DC coincide on symmetric graphs (paper Tables 2/3 show identical rows)") {
    for (d <- Seq("RoadNet-PA", "YouTube", "RoadNet-TX", "RoadNet-CA", "Orkut")) {
      val sc = byKey((d, "SC")); val dc = byKey((d, "DC"))
      assert(sc.balance == dc.balance && sc.commCost == dc.commCost &&
        sc.cut == dc.cut && sc.nonCut == dc.nonCut,
        s"$d: SC/DC rows should be identical on a symmetric graph")
    }
  }

  test("modulo partitioners exploit grid ID locality: SC CommCost < RVC on road networks") {
    for (d <- Seq("RoadNet-PA", "RoadNet-TX", "RoadNet-CA")) {
      assert(byKey((d, "SC")).commCost < byKey((d, "RVC")).commCost, d)
    }
  }

  test("replica accounting is consistent on every row") {
    for (m <- rows) {
      assert(m.nonCut + m.cut == m.numVertices, s"${m.dataset}/${m.partitioner}")
      assert(m.cut == 0 || m.commCost >= 2 * m.cut, s"${m.dataset}/${m.partitioner}")
      assert(m.commCost <= m.cut.toLong * m.numPartitions, s"${m.dataset}/${m.partitioner}")
    }
  }
}
