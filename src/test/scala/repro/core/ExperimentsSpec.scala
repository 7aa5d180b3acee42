package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GraphProfile}
import repro.partition.{PartitionMetrics, Partitioners}
import repro.sim.Infra
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
    Experiments.Cell(metrics(dataset, partitioner, parts, commCost, cut), millis)

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
    assert(lines.slice(2, 4) == Seq(
      f"    best(${"A"}%-14s) = ${"2D"}%-5s PARSEL = ${"2D"}%-5s regret = ${0.0}%6.1f%%",
      f"    best(${"B"}%-14s) = ${"RVC"}%-5s PARSEL = ${"RVC"}%-5s regret = ${0.0}%6.1f%%"))
    assert(lines(4).startsWith(f"  parts=$fine%3d"))
    assert(lines(5) == f"    best(${"A"}%-14s) = ${"RVC"}%-5s PARSEL = ${"2D"}%-5s regret = ${900.0}%6.1f%%")
    val cellLines = lines.takeRight(cells.size)
    assert(lines.size == 1 + 2 * 3 + cells.size)
    for ((line, c) <- cellLines.zip(cells)) {
      assert(line.contains(c.metrics.dataset) && line.contains(c.metrics.partitioner))
      assert(line.contains(f"${c.millis}%10.1f ms") && line.contains(f"commCost=${c.metrics.commCost}%10d"))
    }
  }

  test("printInfra: config (ii) is the baseline, (iii) and (iv) cite the paper's gains") {
    val m = metrics("follow-dec", "2D", 256, commCost = 1000000, cut = 20)
    val lines = printed(Experiments.printInfra(m, bytes = 25000000L))
    assert(lines(0) == "=== Infra experiment: PageRank on follow-dec @ 256 partitions ===")
    assert(lines.size == 5)
    assert(lines(1).startsWith("(ii)  (ii) 1Gbps+HDD") && lines(1).endsWith("s  (baseline)"))
    assert(lines(2).startsWith("(iii) (iii) 40Gbps+HDD") && lines(2).endsWith("(paper: 15%)"))
    assert(lines(3).startsWith("(iv)  (iv) 40Gbps+SSD") && lines(3).endsWith("(paper: 20%)"))
    def penalty(infra: Infra) = 100 * Experiments.skewPenalty(m, 25000000L, infra)
    assert(lines(4) == f"bad-partitioner relative penalty: (ii) ${penalty(Infra.ConfigII)}%5.1f%%  " +
      f"(iii) ${penalty(Infra.ConfigIII)}%5.1f%%  (iv) ${penalty(Infra.ConfigIV)}%5.1f%%")
  }

  test("printParselPicks: one line per pick with the chosen strategy's criterion") {
    val rows = Seq(
      metrics("A", "RVC", 8, commCost = 90, cut = 9),
      metrics("A", "2D", 8, commCost = 40, cut = 12))
    val picks = Seq(
      Experiments.ParselPick(Parsel.PR, rows(1)),
      Experiments.ParselPick(Parsel.TR, metrics("A", "RVC", 16, commCost = 90, cut = 9)))
    val lines = printed(Experiments.printParselPicks(picks))
    assert(lines.size == 1 + picks.size)
    assert(lines(1) == f"${"A"}%-14s ${"PageRank"}%-20s -> ${"2D"}%-5s @   8 partitions (criterion=40)")
    assert(lines(2) == f"${"A"}%-14s ${"TriangleCount"}%-20s -> ${"RVC"}%-5s @  16 partitions (criterion=9)")
  }

  test("parselRegret: the pick from the cells' metrics, timed against the fastest cell") {
    assert(Experiments.parselRegret(cells, coarse, Parsel.EdgeBound) ==
      Map("A" -> ("2D", 0.0), "B" -> ("RVC", 0.0)))
    assert(Experiments.parselRegret(cells, coarse, Parsel.VertexBound) ==
      Map("A" -> ("RVC", 2.0), "B" -> ("1D", 1.0)))
    val fineRegret = Experiments.parselRegret(cells, fine, Parsel.EdgeBound)
    assert(fineRegret("A") == ("2D", 9.0))
    assert(fineRegret("B")._1 == "RVC" && math.abs(fineRegret("B")._2 - 1.0 / 6) < 1e-12)
  }

  test("experiments names the five results Main runs, each once") {
    assert(Experiments.experiments.map(_._1) ==
      Seq("table1", "metrics", "correlation", "infra", "parsel"))
    assert(!Experiments.experiments.toMap.contains("table2"))
  }

  /** The only failure `failures` holds, which must name `subjects`. */
  private def assertOnlyFailure(failures: Seq[String], subjects: String*): Unit = {
    assert(failures.size == 1, failures)
    for (s <- subjects) assert(failures.head.contains(s), failures.head)
  }

  /** Each dataset's Table 1 profile at the paper's own figures, scaled like
    * the analogues; every analogue counted as fragmented.
    */
  private val table1Rows = Datasets.all.map { spec =>
    val div = Experiments.metricDiv
    spec -> GraphProfile(spec.name, spec.paperVertices / div, spec.paperEdges / div,
      spec.paperSymmPct, spec.paperZeroInPct, spec.paperZeroOutPct, spec.paperTriangles / div,
      math.max(2L, spec.paperComponents / div), spec.paperDiameter, spec.paperSizeBytes / div)
  }

  private def updated[A](rows: Seq[A], hit: A => Boolean)(f: A => A): Seq[A] =
    rows.map(r => if (hit(r)) f(r) else r)

  test("table1Checks: the paper's own shape passes; each broken shape names its dataset") {
    assert(Experiments.table1Checks(table1Rows) == Nil)
    def broken(name: String)(f: GraphProfile => GraphProfile) =
      Experiments.table1Checks(updated(table1Rows, (r: (Datasets.Spec, GraphProfile)) =>
        r._1.name == name) { case (spec, p) => spec -> f(p) })
    assertOnlyFailure(broken("YouTube")(_.copy(symmPct = 99.0)), "YouTube", "symm")
    assertOnlyFailure(broken("Pocek")(p => p.copy(edges = p.edges * 4)), "Pocek", "edges")
    assertOnlyFailure(broken("RoadNet-TX")(_.copy(components = 1)), "RoadNet-TX", "components")
    assertOnlyFailure(broken("follow-dec")(_.copy(zeroInPct = 20.0)), "follow-dec", "zeroIn")
    assertOnlyFailure(broken("Orkut")(_.copy(diameter = Some(30))), "Orkut", "diameter")
    assertOnlyFailure(broken("Orkut")(_.copy(triangles = 0)), "Orkut", "RoadNet-PA")
    assertOnlyFailure(Experiments.table1Checks(table1Rows.tail), "RoadNet-PA", "no Table 1 row")
  }

  /** A metric table with the regime the paper reports on every dataset:
    * balanced hash partitioners, 1D and SC collapsed on the follow graphs,
    * and CommCost ordered 2D < SC = DC < CRVC < 1D < RVC.
    */
  private def paperRegime(parts: Int, growth: Double): Seq[PartitionMetrics] =
    for (spec <- Datasets.all; s <- Partitioners.all) yield {
      val collapsed = spec.name.startsWith("follow-") && Seq("1D", "SC").contains(s.name)
      val nonCut = if (collapsed) 500L else 10L
      val commCost = Map("2D" -> 2500, "SC" -> 2600, "DC" -> 2600, "CRVC" -> 2800,
        "1D" -> 2900, "RVC" -> 3000)(s.name)
      PartitionMetrics(spec.name, s.name, parts, numEdges = 5000, numVertices = 1000,
        balance = if (collapsed) 3.0 else 1.0, nonCut = nonCut, cut = 1000 - nonCut,
        commCost = (commCost * growth).toLong, partStDev = 1.0)
    }

  private val table2 = paperRegime(128, 1.0)
  private val table3 = paperRegime(256, 1.5)

  private def row(d: String, p: String)(m: PartitionMetrics) = m.dataset == d && m.partitioner == p

  test("metricsChecks: the paper's regime passes; each broken row names dataset and partitioner") {
    assert(Experiments.metricsChecks(128, table2) == Nil)
    def broken(d: String, p: String)(f: PartitionMetrics => PartitionMetrics) =
      Experiments.metricsChecks(128, updated(table2, row(d, p))(f))
    assertOnlyFailure(broken("YouTube", "CRVC")(_.copy(balance = 1.7)), "YouTube/CRVC @ 128", "balance")
    assertOnlyFailure(broken("Pocek", "RVC")(_.copy(nonCut = 200, cut = 800)), "Pocek/RVC @ 128", "nonCut")
    assertOnlyFailure(broken("follow-dec", "SC")(_.copy(balance = 1.5)), "follow-dec/SC @ 128", "balance")
    assertOnlyFailure(broken("follow-jul", "1D")(_.copy(nonCut = 90, cut = 910)), "follow-jul/1D @ 128", "nonCut")
    assertOnlyFailure(broken("Orkut", "2D")(_.copy(commCost = 3100)), "Orkut/2D @ 128", "RVC's")
    assertOnlyFailure(broken("RoadNet-CA", "CRVC")(_.copy(commCost = 3000)), "RoadNet-CA/CRVC @ 128", "RVC's")
    assertOnlyFailure(Experiments.metricsChecks(128, updated(table2, (m: PartitionMetrics) =>
      row("RoadNet-TX", "SC")(m) || row("RoadNet-TX", "DC")(m))(_.copy(commCost = 3001))),
      "RoadNet-TX/SC @ 128", "RVC's")
    assertOnlyFailure(broken("YouTube", "DC")(_.copy(partStDev = 2.0, balance = 1.1)), "YouTube/SC @ 128", "DC")
    assertOnlyFailure(broken("Pocek", "1D")(_.copy(commCost = 1000000)), "Pocek/1D @ 128", "commCost")
    assertOnlyFailure(broken("Pocek", "1D")(_.copy(numVertices = 999)), "Pocek/1D @ 128", "vertices")
    assertOnlyFailure(Experiments.metricsChecks(128, table2.filterNot(row("YouTube", "DC"))),
      "YouTube/DC @ 128", "no row")
  }

  test("crossTableChecks: CommCost grows by under 2x; follow balance does not improve") {
    assert(Experiments.crossTableChecks(table2, table3) == Nil)
    assertOnlyFailure(Experiments.crossTableChecks(table2,
      updated(table3, row("Pocek", "RVC"))(_.copy(commCost = 6000))), "Pocek/RVC", "2x")
    assertOnlyFailure(Experiments.crossTableChecks(table2,
      updated(table3, row("Pocek", "RVC"))(_.copy(commCost = 2999))), "Pocek/RVC", "2x")
    assertOnlyFailure(Experiments.crossTableChecks(table2,
      updated(table3, row("follow-jul", "DC"))(_.copy(balance = 0.8))), "follow-jul/DC", "balance")
    assertOnlyFailure(Experiments.crossTableChecks(table2.take(30), table3), "only 30")
  }

  /** A complete sweep of `kind` in which time rises with every metric, so
    * the cheapest cell is also the fastest.
    */
  private def sweep(kind: Parsel.AlgoKind): Seq[Experiments.Cell] =
    for (spec <- Experiments.sweepDatasets(kind); (s, i) <- Partitioners.all.zipWithIndex;
         parts <- Seq(coarse, fine))
      yield cell(spec.name, s.name, parts, millis = 10.0 * (i + 1), commCost = 100L * (i + 1),
        cut = 10L * (i + 1))

  test("sweepChecks: a complete, well-correlated sweep passes; each gap is reported") {
    for (kind <- Parsel.algoKinds) assert(Experiments.sweepChecks(kind, sweep(kind)) == Nil, kind)
    val gap = Experiments.sweepChecks(Parsel.SSSP, sweep(Parsel.SSSP).filterNot(c =>
      c.metrics.dataset == "YouTube" && c.metrics.partitioner == "2D" && c.metrics.numPartitions == coarse))
    assert(gap == Seq("SSSP: 59 cells, expected 60", s"SSSP: YouTube/2D @ $coarse: no cell"))
    // SSSP skips the road networks, so a PageRank-shaped sweep has extra cells.
    assert(Experiments.sweepChecks(Parsel.SSSP, sweep(Parsel.PR)) == Seq("SSSP: 72 cells, expected 60"))
    assertOnlyFailure(Experiments.sweepChecks(Parsel.TR, sweep(Parsel.TR).map(c =>
      if (c.metrics.dataset == "Pocek" && c.metrics.partitioner == "1D" && c.metrics.numPartitions == coarse)
        c.copy(millis = 0.0)
      else c)), s"TriangleCount: Pocek/1D @ $coarse", "time 0.0")
    val reversed = sweep(Parsel.CC).map(c => c.copy(millis = 70.0 - c.millis))
    assert(Experiments.sweepChecks(Parsel.CC, reversed) == Seq(coarse, fine).map(parts =>
      f"ConnectedComponents @ $parts: corr(time, CommCost) = -100.0%% is not above 20%%"))
  }

  test("sweepChecks: PARSEL's PageRank regret stays below 100% per dataset and 50% on average") {
    // Give follow-dec's slowest partitioner the lowest CommCost at the fine
    // granularity, so PARSEL picks it: regret 60 ms / 10 ms - 1 = 500 %.
    val misled = sweep(Parsel.PR).map(c =>
      if (c.metrics.dataset == "follow-dec" && c.metrics.partitioner == "DC" && c.metrics.numPartitions == fine)
        c.copy(metrics = c.metrics.copy(commCost = 1))
      else c)
    val failures = Experiments.sweepChecks(Parsel.PR, misled)
    assert(failures.exists(f => f.contains(s"follow-dec/DC @ $fine") && f.contains("regret 500.0%")), failures)
    assert(failures.exists(f => f.contains("mean regret 125.0%") && f.contains("follow-dec/DC")), failures)
    // Only the PageRank sweep gates the regret.
    assert(!Experiments.sweepChecks(Parsel.CC, misled).exists(_.contains("regret")))
  }

  /** follow-dec's 2D metrics at 256 partitions at about 1/100 scale, with the
    * size of its edge list in bytes: the regime of the infra experiment.
    */
  private val infraMetrics = PartitionMetrics("follow-dec", "2D", 256, numEdges = 2000000,
    numVertices = 800000, balance = 1.2, nonCut = 600000, cut = 200000, commCost = 1000000,
    partStDev = 100.0)
  private val infraBytes = 41000000L

  test("infraChecks: the paper's gains pass; a model without communication or storage fails") {
    assert(Experiments.infraChecks(infraMetrics, infraBytes) == Nil)
    assertOnlyFailure(Experiments.infraChecks(infraMetrics.copy(commCost = 2500000), infraBytes),
      "follow-dec/2D @ 256", "40Gbps gain")
    val flat = Experiments.infraChecks(infraMetrics.copy(commCost = 0), bytes = 0)
    assert(flat.size == 4 && flat.forall(_.startsWith("follow-dec/2D @ 256: ")), flat)
  }
}
