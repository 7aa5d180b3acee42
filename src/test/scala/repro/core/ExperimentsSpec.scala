package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GraphProfile}
import repro.partition.{PartitionMetrics, Partitioners}
import java.io.ByteArrayOutputStream

/** The shared drivers' pure parts and the printers, over hand-built results:
  * no SparkSession is started.
  */
class ExperimentsSpec extends AnyFunSuite {

  private def metrics(dataset: String, partitioner: String, parts: Int,
      commCost: Long, cut: Long): PartitionMetrics =
    PartitionMetrics(dataset, partitioner, parts, numEdges = 100, numVertices = 50,
      balance = 1.25, nonCut = 50 - cut, cut = cut, commCost = commCost, partStDev = 3.5)

  private def cell(dataset: String, partitioner: String, parts: Int, millis: Double,
      commCost: Long, cut: Long): Experiments.Cell =
    Experiments.Cell(
      Runner.TimedRun(dataset, "PageRank", partitioner, parts, millis),
      metrics(dataset, partitioner, parts, commCost, cut))

  private val coarse = Experiments.coarseParts
  private val fine   = Experiments.fineParts

  // Time rises with CommCost and falls with Cut at the coarse granularity;
  // the fine cells are noise that must not leak into the coarse statistics.
  private val cells = Seq(
    cell("A", "RVC", coarse, 30.0, commCost = 300, cut = 10),
    cell("A", "2D", coarse, 10.0, commCost = 100, cut = 30),
    cell("B", "RVC", coarse, 20.0, commCost = 200, cut = 20),
    cell("B", "1D", coarse, 40.0, commCost = 400, cut = 0),
    cell("A", "RVC", fine, 5.0, commCost = 999, cut = 1),
    cell("A", "2D", fine, 50.0, commCost = 1, cut = 2),
    cell("B", "RVC", fine, 7.0, commCost = 3, cut = 3),
    cell("B", "1D", fine, 6.0, commCost = 4, cut = 4))

  /** Lines a printer writes to standard output, in order. */
  private def printed(print: => Unit): Seq[String] = {
    val buf = new ByteArrayOutputStream()
    Console.withOut(buf)(print)
    buf.toString("UTF-8").linesIterator.toSeq
  }

  test("correlation reads only the cells of the requested granularity") {
    assert(math.abs(Experiments.correlation(cells, coarse, _.commCost) - 1.0) < 1e-12)
    assert(math.abs(Experiments.correlation(cells, coarse, _.cut) + 1.0) < 1e-12)
    assert(Experiments.correlation(cells, fine, _.commCost) < 0)
  }

  test("bestPartitioner picks the fastest cell per dataset at one granularity") {
    assert(Experiments.bestPartitioner(cells, coarse) == Map("A" -> "2D", "B" -> "RVC"))
    assert(Experiments.bestPartitioner(cells, fine) == Map("A" -> "RVC", "B" -> "1D"))
  }

  test("printTable1: header, then each measured tableRow above the paper's row") {
    val spec = Datasets.byName("YouTube")
    val profile = GraphProfile("YouTube", 10, 20, 100.0, 0.0, 0.0, 3, 1, Some(4), 200)
    val lines = printed(Experiments.printTable1(Seq(spec -> profile)))
    assert(lines.size == 4)
    assert(lines(0) == s"=== Table 1: dataset characterization (scale 1/${Experiments.metricDiv}) ===")
    assert(lines(1).startsWith("Dataset") && lines(1).contains("Triangles"))
    assert(lines(2) == "measured  " + profile.tableRow)
    assert(lines(3).startsWith("paper     YouTube"))
    assert(lines(3).contains(spec.paperEdges.toString))
  }

  test("printMetricsTable: header, then one tableRow per row") {
    val rows = Partitioners.all.map(s => metrics("A", s.name, 128, commCost = 7, cut = 3))
    val lines = printed(Experiments.printMetricsTable("Table 2", 128, rows))
    assert(lines(0) == s"=== Table 2: partitioning metrics @ 128 partitions " +
      s"(scale 1/${Experiments.metricDiv}) ===")
    assert(lines(1).startsWith("Dataset") && lines(1).contains("CommCost"))
    assert(lines.drop(2) == rows.map(_.tableRow))
  }

  test("printSweep: correlations and best partitioners per granularity, then every cell") {
    val lines = printed(Experiments.printSweep(Parsel.PR, cells))
    assert(lines(0) == s"=== PageRank sweep (scale 1/${Experiments.timedDiv}, partitions $coarse/$fine) ===")
    assert(lines(1).startsWith(f"  parts=$coarse%3d") && lines(1).contains("corr(time, CommCost)= 100.0%"))
    assert(lines(1).contains("corr(time, Cut)=-100.0%"))
    assert(lines.slice(2, 4) == Seq(f"    best(${"A"}%-14s) = 2D", f"    best(${"B"}%-14s) = RVC"))
    assert(lines(4).startsWith(f"  parts=$fine%3d"))
    val cellLines = lines.takeRight(cells.size)
    assert(lines.size == 1 + 2 * 3 + cells.size)
    for ((line, c) <- cellLines.zip(cells)) {
      assert(line.contains(c.run.dataset) && line.contains(c.run.partitioner))
      assert(line.contains(f"${c.run.millis}%10.1f ms") && line.contains(f"commCost=${c.metrics.commCost}%10d"))
    }
  }

  test("printInfra: config (ii) is the baseline, (iii) and (iv) cite the paper's gains") {
    val m = metrics("follow-dec", "2D", 256, commCost = 1000000, cut = 20)
    val lines = printed(Experiments.printInfra(m, bytes = 25000000L))
    assert(lines(0) == "=== Infra experiment: PageRank on follow-dec @ 256 partitions ===")
    assert(lines.size == 4)
    assert(lines(1).startsWith("(ii)  (ii) 1Gbps+HDD") && lines(1).endsWith("s  (baseline)"))
    assert(lines(2).startsWith("(iii) (iii) 40Gbps+HDD") && lines(2).endsWith("(paper: 15%)"))
    assert(lines(3).startsWith("(iv)  (iv) 40Gbps+SSD") && lines(3).endsWith("(paper: 20%)"))
  }

  test("printParselPicks: one line per pick with the chosen strategy's criterion") {
    val rows = Seq(
      metrics("A", "RVC", 8, commCost = 90, cut = 9),
      metrics("A", "2D", 8, commCost = 40, cut = 12))
    val picks = Seq(
      Experiments.ParselPick("A", Parsel.PR, 8, Parsel.Selection(Partitioners.TwoD, Parsel.EdgeBound, rows)),
      Experiments.ParselPick("A", Parsel.TR, 16, Parsel.Selection(Partitioners.RVC, Parsel.VertexBound, rows)))
    val lines = printed(Experiments.printParselPicks(picks))
    assert(lines.size == 1 + picks.size)
    assert(lines(1) == f"${"A"}%-14s ${"PageRank"}%-20s -> ${"2D"}%-5s @   8 partitions (criterion=40)")
    assert(lines(2) == f"${"A"}%-14s ${"TriangleCount"}%-20s -> ${"RVC"}%-5s @  16 partitions (criterion=9)")
  }

  test("experiments names the six results Main runs, each once") {
    assert(Experiments.experiments.map(_._1) ==
      Seq("table1", "table2", "table3", "correlation", "infra", "parsel"))
    assert(!Experiments.experiments.toMap.contains("table4"))
  }
}
