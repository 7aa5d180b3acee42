package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.{Datasets, GraphOps, GraphProfile}
import repro.partition.{Metrics, PartitionMetrics, Partitioners}
import repro.sim.{BspCostModel, Infra}

/** The drivers, printers and checks behind `repro.jobs.Main`, so each paper
  * result is computed, formatted and checked by one code path. A printer
  * takes results that were already computed and prints them line by line to
  * standard output. A check takes the same results and returns one message
  * per way they miss the shape the paper reports; the message names the
  * dataset and partitioner it is about.
  *
  * Scale knobs (all env-overridable, see README):
  *   - `REPRO_METRIC_DIV`  (default 100)  — Tables 1–3 and the infra
  *     experiment run at 1/100 of the paper's graph sizes with the paper's
  *     exact partition counts (128/256);
  *   - `REPRO_TIMED_DIV`   (default 2000) — the timed correlation sweep and
  *     the PARSEL picks run at 1/2000 scale;
  *   - `REPRO_COARSE`/`REPRO_FINE` (default 8/16) — partition counts for the
  *     timed sweep, the local[*] analogue of the paper's 128/256 on 128 cores.
  */
object Experiments {

  private def envInt(name: String, default: Int): Int =
    sys.env.get(name).map(_.toInt).getOrElse(default)

  def metricDiv: Int = envInt("REPRO_METRIC_DIV", 100)
  def timedDiv: Int  = envInt("REPRO_TIMED_DIV", 2000)
  def coarseParts: Int = envInt("REPRO_COARSE", 8)
  def fineParts: Int   = envInt("REPRO_FINE", 16)

  /** The paper's partition-count configurations for the metric tables. */
  val PaperCoarse = 128
  val PaperFine   = 256

  /** `failure` alone when `ok` is false, else nothing. */
  private def check(ok: Boolean, failure: => String): Seq[String] =
    if (ok) Nil else Seq(failure)

  /** The SparkSession every entrypoint and test runs in. Broadcast joins are
    * disabled so the metric aggregations always take the shuffle path.
    */
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  // ---------------------------------------------------------------- Table 1

  /** Characterize every dataset analogue (Table 1). Pseudo-diameter is only
    * computed for the single-component social graphs, as in the paper all
    * multi-component datasets report ∞.
    */
  def table1(spark: SparkSession): Seq[(Datasets.Spec, GraphProfile)] =
    Datasets.all.map { spec =>
      val edges = Datasets.edges(spark, spec, metricDiv)
      val profile = GraphOps.profile(spec.name, edges,
        numParts = fineParts, includeDiameter = spec.paperDiameter.isDefined)
      (spec, profile)
    }

  /** Table 1: each measured profile above the paper's row for the dataset. */
  def printTable1(rows: Seq[(Datasets.Spec, GraphProfile)]): Unit = {
    println(s"=== Table 1: dataset characterization (scale 1/$metricDiv) ===")
    println(f"${"Dataset"}%-14s ${"Vertices"}%9s ${"Edges"}%10s ${"Symm"}%6s ${"ZeroIn"}%7s " +
      f"${"ZeroOut"}%8s ${"Triangles"}%12s ${"Conn.Comp."}%10s ${"Diam"}%8s ${"Size"}%12s")
    for ((spec, p) <- rows) {
      println("measured  " + p.tableRow)
      println(f"paper     ${spec.name}%-14s ${spec.paperVertices}%9d ${spec.paperEdges}%10d " +
        f"${spec.paperSymmPct}%6.2f ${spec.paperZeroInPct}%7.2f ${spec.paperZeroOutPct}%8.2f " +
        f"${spec.paperTriangles}%12d ${spec.paperComponents}%10d " +
        f"${spec.paperDiameter.map(_.toString).getOrElse("inf")}%8s ${spec.paperSizeBytes}%12d")
    }
  }

  /** The structural shape each Table 1 analogue was built to have. */
  def table1Checks(rows: Seq[(Datasets.Spec, GraphProfile)]): Seq[String] = {
    val div = metricDiv
    val byName = rows.map { case (spec, p) => spec.name -> p }.toMap
    def perVertex(name: String) = byName.get(name).map(p => p.triangles.toDouble / p.vertices)
    def denser(a: String, times: Int, b: String) =
      for (x <- perVertex(a).toSeq; y <- perVertex(b).toSeq;
           f <- check(x > times * y, f"$a: $x%.2f triangles per vertex, not above $times x $b's $y%.2f"))
      yield f
    Datasets.all.filterNot(spec => byName.contains(spec.name)).map(spec => s"${spec.name}: no Table 1 row") ++
    rows.flatMap { case (spec, p) =>
      val n = spec.name
      val (targetV, targetE) = (spec.paperVertices / div, spec.paperEdges / div)
      check(p.vertices > targetV / 3 && p.vertices < targetV * 3,
        s"$n: vertices ${p.vertices} not within 3x of the target $targetV") ++
      check(p.edges > targetE / 3 && p.edges < targetE * 3,
        s"$n: edges ${p.edges} not within 3x of the target $targetE") ++
      // Undirected datasets measure exactly 100 %; directed ones near the paper's value.
      check(if (spec.paperSymmPct == 100.0) p.symmPct == 100.0
            else math.abs(p.symmPct - spec.paperSymmPct) < 15.0,
        s"$n: symm ${p.symmPct} vs paper ${spec.paperSymmPct}") ++
      check(spec.paperZeroInPct != 0.0 || p.zeroInPct == 0.0, s"$n: zeroIn ${p.zeroInPct}, paper 0") ++
      check(spec.paperZeroOutPct != 0.0 || p.zeroOutPct == 0.0, s"$n: zeroOut ${p.zeroOutPct}, paper 0") ++
      // The social analogues fragment more than SNAP's LCC-extracted graphs
      // (RMAT offers no giant-component guarantee at E/V ~ 2.6), so the anchor
      // is the road family, whose fragment count is a generator parameter.
      check(!n.startsWith("RoadNet") ||
          p.components > 1 && p.components <= 6 * math.max(1L, spec.paperComponents / div),
        s"$n: ${p.components} components, expected 2 to 6x the scaled target " +
          math.max(1L, spec.paperComponents / div)) ++
      check(spec.paperDiameter.isDefined || p.diameter.isEmpty,
        s"$n: diameter ${p.diameterStr}, paper inf") ++
      // A connected analogue must be small-world like the paper's 9–20.
      check(p.diameter.forall(_ < 25), s"$n: diameter ${p.diameterStr} is not below 25")
    } ++
    byName.get("follow-dec").toSeq.flatMap(p =>
      check(p.zeroInPct > 25.0, s"follow-dec: zeroIn ${p.zeroInPct} is not above 25") ++
      check(p.zeroOutPct > 8.0, s"follow-dec: zeroOut ${p.zeroOutPct} is not above 8")) ++
    denser("Orkut", 10, "RoadNet-PA") ++ denser("Pocek", 1, "RoadNet-CA")
  }

  // ------------------------------------------------------------ Tables 2, 3

  /** All five metrics for every (dataset, partitioner), at the paper's 128
    * partitions (Table 2) and at its 256 (Table 3), generating each dataset
    * once for both.
    */
  def metricsTables(spark: SparkSession): (Seq[PartitionMetrics], Seq[PartitionMetrics]) = {
    val perDataset = Datasets.all.map { spec =>
      val edges = Datasets.edges(spark, spec, metricDiv).cache()
      try (Metrics.computeAll(spec.name, edges, PaperCoarse),
        Metrics.computeAll(spec.name, edges, PaperFine))
      finally edges.unpersist()
    }
    (perDataset.flatMap(_._1), perDataset.flatMap(_._2))
  }

  /** Table 2 or 3: one `PartitionMetrics.tableRow` per row. */
  def printMetricsTable(title: String, numParts: Int, rows: Seq[PartitionMetrics]): Unit = {
    println(s"=== $title: partitioning metrics @ $numParts partitions (scale 1/$metricDiv) ===")
    println(f"${"Dataset"}%-14s ${"Part."}%-5s ${"Balance"}%7s ${"NonCut"}%12s ${"Cut"}%12s " +
      f"${"CommCost"}%14s ${"PartStDev"}%14s")
    rows.foreach(m => println(m.tableRow))
  }

  /** The regime the paper's analysis of one metric table rests on. */
  def metricsChecks(numParts: Int, rows: Seq[PartitionMetrics]): Seq[String] = {
    val byKey = rows.map(m => (m.dataset, m.partitioner) -> m).toMap
    def pairs(datasets: Seq[String], a: String, b: String) =
      for (d <- datasets; x <- byKey.get((d, a)); y <- byKey.get((d, b))) yield (x, y)
    def cheaper(datasets: Seq[String], a: String, b: String) =
      pairs(datasets, a, b).flatMap { case (x, y) =>
        check(x.commCost < y.commCost, s"${at(x)}: commCost ${x.commCost} is not below $b's ${y.commCost}")
      }
    val roads = Seq("RoadNet-PA", "RoadNet-TX", "RoadNet-CA")
    val symmetric = roads ++ Seq("YouTube", "Orkut")
    val follows = Seq("follow-jul", "follow-dec")
    (for (spec <- Datasets.all; s <- Partitioners.all if !byKey.contains((spec.name, s.name)))
      yield s"${spec.name}/${s.name} @ $numParts: no row") ++
    // Paper: 1.00-1.03. At 1/100 scale the smallest datasets hold only a few
    // hundred edges per partition, so sampling noise loosens the bound.
    rows.filter(m => m.partitioner == "RVC" || m.partitioner == "CRVC").flatMap(m =>
      check(m.balance < 1.6, s"${at(m)}: balance ${m.balance} is not below 1.6")) ++
    // RVC cuts nearly every vertex. Degree-1 vertices are NonCut under any
    // strategy, and the scaled analogues carry relatively more of them than
    // the paper's graphs, so the bound is loose; the regime (a few percent vs
    // the leaves' ~50 % under 1D) is what matters.
    rows.filter(_.partitioner == "RVC").flatMap(m =>
      check(m.nonCut.toDouble / m.numVertices < 0.12,
        s"${at(m)}: nonCut ${m.nonCut} of ${m.numVertices} vertices is not below 12%")) ++
    // 1D and SC collapse on the superstar follow graphs.
    Seq("1D", "SC").flatMap(p => pairs(follows, p, "RVC")).flatMap { case (m, rvc) =>
      check(m.balance > 2.0, s"${at(m)}: balance ${m.balance} is not above 2") ++
      check(m.nonCut > rvc.nonCut * 10, s"${at(m)}: nonCut ${m.nonCut} is not above 10x RVC's ${rvc.nonCut}")
    } ++
    cheaper(Seq("Orkut", "socLiveJournal") ++ follows, "2D", "RVC") ++ // the paper's PR winner
    cheaper(symmetric, "CRVC", "RVC") ++ // reciprocal edges are collocated
    cheaper(roads, "SC", "RVC") ++ // modulo partitioners exploit grid ID locality
    // On a symmetric graph SC and DC place every edge alike (identical rows in the paper).
    pairs(symmetric, "SC", "DC").flatMap { case (sc, dc) =>
      check(sc.balance == dc.balance && sc.commCost == dc.commCost && sc.cut == dc.cut &&
        sc.nonCut == dc.nonCut, s"${at(sc)}: row differs from DC's")
    } ++
    rows.flatMap(m =>
      check(m.nonCut + m.cut == m.numVertices,
        s"${at(m)}: nonCut ${m.nonCut} + cut ${m.cut} != ${m.numVertices} vertices") ++
      check(m.cut == 0 || m.commCost >= 2 * m.cut, s"${at(m)}: commCost ${m.commCost} < 2 x cut ${m.cut}") ++
      check(m.commCost <= m.cut * m.numPartitions,
        s"${at(m)}: commCost ${m.commCost} > cut ${m.cut} x ${m.numPartitions} partitions"))
  }

  /** The paper's two observations across Tables 2 and 3 (§A): CommCost grows
    * with the partition count but by less than 2x, and finer grain does not
    * improve the balance of 1D, SC and DC on the skewed follow graphs.
    */
  def crossTableChecks(coarse: Seq[PartitionMetrics], fine: Seq[PartitionMetrics]): Seq[String] = {
    val coarseByKey = coarse.map(m => (m.dataset, m.partitioner) -> m).toMap
    val pairs = for (f <- fine; c <- coarseByKey.get((f.dataset, f.partitioner))) yield (c, f)
    // Rows with a small CommCost are skipped: granularity noise dominates them.
    val grown = pairs.filter(_._1.commCost > 1000)
    grown.flatMap { case (c, f) =>
      check(f.commCost >= c.commCost && f.commCost < 2 * c.commCost,
        s"${f.dataset}/${f.partitioner}: commCost ${c.commCost} @ ${c.numPartitions} -> " +
          s"${f.commCost} @ ${f.numPartitions} does not grow by less than 2x")
    } ++
    check(grown.size > 30, s"only ${grown.size} (dataset, partitioner) pairs with commCost above 1000") ++
    pairs.filter { case (c, _) =>
      c.dataset.startsWith("follow-") && Seq("1D", "SC", "DC").contains(c.partitioner)
    }.flatMap { case (c, f) =>
      check(f.balance >= c.balance * 0.9, s"${f.dataset}/${f.partitioner}: balance ${c.balance} @ " +
        s"${c.numPartitions} -> ${f.balance} @ ${f.numPartitions} improves by over 10%")
    }
  }

  /** `dataset/partitioner @ partitions`, the subject of a metrics check. */
  private def at(m: PartitionMetrics): String = s"${m.dataset}/${m.partitioner} @ ${m.numPartitions}"

  // ------------------------------------------- Figures 3–6 as a table sweep

  /** One timed sweep cell: the metrics the paper correlates against wall
    * time, which also name its dataset, partitioner and granularity, and the
    * time in milliseconds.
    */
  final case class Cell(metrics: PartitionMetrics, millis: Double)

  /** The timed-sweep dataset panel: one representative per structural family.
    * The paper sweeps all nine; the three road networks and the two follow
    * crawls behave as identical groups in its figures, so the single-machine
    * reproduction times one of each (the siblings' metric shapes are still
    * fully covered by Tables 2/3).
    */
  def timedDatasets: Seq[Datasets.Spec] =
    Seq("RoadNet-PA", "YouTube", "Pocek", "Orkut", "socLiveJournal", "follow-dec")
      .map(Datasets.byName)

  /** Whether `kind` is timed on `spec`: the road networks are excluded for
    * SSSP as in the paper (their SSSP runs did not complete).
    */
  private def timedOn(kind: Parsel.AlgoKind, spec: Datasets.Spec): Boolean =
    kind != Parsel.SSSP || !spec.name.startsWith("RoadNet")

  /** The datasets of `timedDatasets` one algorithm's sweep times. */
  def sweepDatasets(kind: Parsel.AlgoKind): Seq[Datasets.Spec] =
    timedDatasets.filter(timedOn(kind, _))

  /** Timed sweep of every (dataset × partitioner × granularity) for each of
    * the four algorithms at 1/`div` scale, coarse granularity first; the
    * cells per algorithm, in `Parsel.algoKinds` order. Each dataset is
    * generated once, and its metrics are computed once per granularity.
    * SSSP runs from two deterministic landmarks per dataset, standing in for
    * the paper's 5 random sources. For each algorithm, one untimed warm-up
    * run per dataset absorbs JIT/page-cache effects, then each cell is timed
    * once.
    */
  def timedSweeps(spark: SparkSession, datasets: Seq[Datasets.Spec],
      div: Int): Seq[(Parsel.AlgoKind, Seq[Cell])] = {
    val partsList = Seq(coarseParts, fineParts)
    val perDataset = datasets.map { spec =>
      val edges = Datasets.edges(spark, spec, div).cache()
      try {
        edges.count() // materialize outside the timed region
        val kinds = Parsel.algoKinds.filter(timedOn(_, spec))
        val landmarks = if (kinds.contains(Parsel.SSSP)) Runner.sampleVertices(edges, 2) else Nil
        val rows = partsList.flatMap(parts =>
          Partitioners.all.zip(Metrics.computeAll(spec.name, edges, parts)))
        kinds.map { kind =>
          Runner.timeRun(edges, kind, Partitioners.RVC, partsList.head, landmarks)
          kind -> rows.map { case (strategy, m) =>
            Cell(m, Runner.timeRun(edges, kind, strategy, m.numPartitions, landmarks))
          }
        }.toMap
      } finally edges.unpersist(blocking = true)
    }
    Parsel.algoKinds.map(kind => kind -> perDataset.flatMap(_.getOrElse(kind, Nil)))
  }

  /** Pearson correlation of wall time against a metric over all cells of one
    * granularity — the number each of Figures 3–6 reports.
    */
  def correlation(cells: Seq[Cell], parts: Int, metric: PartitionMetrics => Long): Double = {
    val subset = cells.filter(_.metrics.numPartitions == parts)
    Runner.pearson(subset.map(c => metric(c.metrics).toDouble),
      subset.map(_.millis))
  }

  /** Best (fastest) partitioner per dataset at one granularity. */
  def bestPartitioner(cells: Seq[Cell], parts: Int): Map[String, String] =
    cells.filter(_.metrics.numPartitions == parts)
      .groupBy(_.metrics.dataset)
      .map { case (d, cs) => d -> cs.minBy(_.millis).metrics.partitioner }

  /** PARSEL's pick per dataset at one granularity, chosen from the cells' own
    * metrics, with its regret: how much slower the pick's cell ran than the
    * fastest cell, as a fraction of the fastest.
    */
  def parselRegret(cells: Seq[Cell], parts: Int,
      algoClass: Parsel.AlgoClass): Map[String, (String, Double)] =
    cells.filter(_.metrics.numPartitions == parts)
      .groupBy(_.metrics.dataset)
      .map { case (d, cs) =>
        val pick = Parsel.selectFromMetrics(cs.map(_.metrics), algoClass).partitioner
        val fastest = cs.map(_.millis).min
        d -> (pick, cs.find(_.metrics.partitioner == pick).get.millis / fastest - 1)
      }

  /** One algorithm's sweep: per granularity, the correlations of time with
    * CommCost and Cut and, per dataset, the best partitioner next to PARSEL's
    * pick and its regret; then every cell.
    */
  def printSweep(kind: Parsel.AlgoKind, cells: Seq[Cell]): Unit = {
    val partsList = cells.map(_.metrics.numPartitions).distinct
    println(s"=== ${kind.name} sweep (scale 1/$timedDiv, partitions ${partsList.mkString("/")}) ===")
    for (parts <- partsList) {
      val rComm = correlation(cells, parts, _.commCost)
      val rCut  = correlation(cells, parts, _.cut)
      println(f"  parts=$parts%3d  corr(time, CommCost)=${100 * rComm}%6.1f%%  " +
        f"corr(time, Cut)=${100 * rCut}%6.1f%%")
      val picks = parselRegret(cells, parts, kind.algoClass)
      for ((d, best) <- bestPartitioner(cells, parts).toSeq.sorted) {
        val (pick, regret) = picks(d)
        println(f"    best($d%-14s) = $best%-5s PARSEL = $pick%-5s regret = ${100 * regret}%6.1f%%")
      }
    }
    cells.foreach(c => println(
      f"  ${c.metrics.dataset}%-14s ${c.metrics.partitioner}%-5s parts=${c.metrics.numPartitions}%3d " +
      f"${c.millis}%10.1f ms  commCost=${c.metrics.commCost}%10d  cut=${c.metrics.cut}%10d"))
  }

  /** The metric the paper finds predicts an algorithm's time (Figures 3–6:
    * 80–97 %), and the Pearson r it must exceed at both granularities here.
    */
  private def predictor(kind: Parsel.AlgoKind): (String, PartitionMetrics => Long, Double) =
    kind match {
      case Parsel.PR   => ("CommCost", _.commCost, 0.3)
      case Parsel.CC   => ("CommCost", _.commCost, 0.2)
      case Parsel.TR   => ("Cut", _.cut, 0.2)
      case Parsel.SSSP => ("CommCost", _.commCost, 0.1)
    }

  /** The datasets on which PARSEL's PageRank regret is checked: a grid, a
    * symmetric social graph, a partially symmetric one and a skewed crawl.
    */
  private val regretDatasets = Seq("RoadNet-PA", "YouTube", "socLiveJournal", "follow-dec")

  /** One algorithm's sweep has exactly one cell per (dataset, partitioner,
    * granularity), each with a positive time, and its time correlates with
    * the predicting metric. On the PageRank sweep, PARSEL's pick at the fine
    * granularity also stays close to the measured best. Local single-node
    * runs put all six partitioners within a ~20 % noise band at these sizes,
    * so rank order is unstable and regret against the fastest is the stable
    * statistic.
    */
  def sweepChecks(kind: Parsel.AlgoKind, cells: Seq[Cell]): Seq[String] = {
    val (metricName, metric, minR) = predictor(kind)
    val partsList = Seq(coarseParts, fineParts)
    val expected = for (spec <- sweepDatasets(kind); s <- Partitioners.all; parts <- partsList)
      yield (spec.name, s.name, parts)
    val timed = cells.map(c => (c.metrics.dataset, c.metrics.partitioner, c.metrics.numPartitions)).toSet
    val regrets =
      if (kind != Parsel.PR) Nil
      else {
        val byDataset = parselRegret(cells, fineParts, kind.algoClass)
        for (d <- regretDatasets; (pick, r) <- byDataset.get(d)) yield (d, pick, r)
      }
    val meanRegret = regrets.map(_._3).sum / math.max(1, regrets.size)
    check(cells.size == expected.size, s"${kind.name}: ${cells.size} cells, expected ${expected.size}") ++
    expected.filterNot(timed).map { case (d, s, parts) => s"${kind.name}: $d/$s @ $parts: no cell" } ++
    cells.flatMap(c => check(c.millis > 0, s"${kind.name}: ${at(c.metrics)}: time ${c.millis} ms")) ++
    partsList.flatMap { parts =>
      val r = correlation(cells, parts, metric)
      check(r > minR, f"${kind.name} @ $parts: corr(time, $metricName) = ${100 * r}%.1f%% " +
        f"is not above ${100 * minR}%.0f%%")
    } ++
    regrets.flatMap { case (d, pick, r) =>
      check(r < 1.0, f"${kind.name}: $d/$pick @ $fineParts: PARSEL's regret ${100 * r}%.1f%% is not below 100%%")
    } ++
    check(meanRegret < 0.5, f"${kind.name} @ $fineParts: PARSEL's mean regret ${100 * meanRegret}%.1f%% over " +
      regrets.map { case (d, pick, _) => s"$d/$pick" }.mkString(", ") + " is not below 50%")
  }

  // ------------------------------------------------ §4 infrastructure model

  /** Inputs of the infrastructure experiment: the 2D metrics of follow-dec at
    * 256 partitions and the size of its edge list on disk in bytes.
    */
  def infraInputs(spark: SparkSession): (PartitionMetrics, Long) = {
    val edges = Datasets.edges(spark, "follow-dec", metricDiv).cache()
    try {
      val bytes = GraphOps.sizeOnDiskBytes(edges)
      (Metrics.compute("follow-dec", edges, Partitioners.TwoD, PaperFine), bytes)
    } finally edges.unpersist()
  }

  private val infraConfigs = Seq(Infra.ConfigII, Infra.ConfigIII, Infra.ConfigIV)

  /** Estimated PageRank time (10 supersteps) of `m` on `infra`. */
  private def infraSeconds(m: PartitionMetrics, bytes: Long, infra: Infra): Double =
    BspCostModel.estimateSeconds(m, bytes, supersteps = 10, infra)

  /** The share of a bad partitioner's time that its skew costs on `infra`:
    * the same metrics with four times the balance factor, against `m`. The
    * compute gap skew causes is the same on every config, so as network and
    * storage costs shrink, its relative cost grows.
    */
  def skewPenalty(m: PartitionMetrics, bytes: Long, infra: Infra): Double = {
    val bad = infraSeconds(m.copy(balance = m.balance * 4), bytes, infra)
    (bad - infraSeconds(m, bytes, infra)) / bad
  }

  /** Estimated PageRank time (10 supersteps) under configs (ii), (iii) and
    * (iv), with the improvement over (ii) next to the paper's 15 % and 20 %,
    * then the bad-partitioner penalty on each config.
    */
  def printInfra(m: PartitionMetrics, bytes: Long): Unit = {
    val base = infraSeconds(m, bytes, Infra.ConfigII)
    println(s"=== Infra experiment: PageRank on follow-dec @ ${m.numPartitions} partitions ===")
    for ((infra, paperPct) <- infraConfigs.zip(Seq(None, Some(15), Some(20)))) {
      val t = infraSeconds(m, bytes, infra)
      val versus = paperPct.fold("(baseline)")(p =>
        f"improvement ${BspCostModel.improvementPct(base, t)}%5.1f%% (paper: ${p}%d%%)")
      println(f"${infra.name.takeWhile(_ != ' ')}%-5s ${infra.name}%-18s $t%8.2f s  $versus")
    }
    println("bad-partitioner relative penalty: " + infraConfigs.map(infra =>
      f"${infra.name.takeWhile(_ != ' ')} ${100 * skewPenalty(m, bytes, infra)}%5.1f%%").mkString("  "))
  }

  /** The paper's infrastructure findings: 40 Gbps speeds PageRank up by
    * about 15 %, SSD on top by about 20 % and strictly more, and a bad
    * partitioner costs relatively more on each better config (its concluding
    * observation).
    */
  def infraChecks(m: PartitionMetrics, bytes: Long): Seq[String] = {
    val Seq(ii, iii, iv) = infraConfigs.map(infraSeconds(m, bytes, _))
    val Seq(pII, pIII, pIV) = infraConfigs.map(skewPenalty(m, bytes, _))
    val network = BspCostModel.improvementPct(ii, iii)
    val both    = BspCostModel.improvementPct(ii, iv)
    check(network > 4.0 && network < 35.0,
      f"${at(m)}: 40Gbps gain $network%.1f%% is outside (4%%, 35%%)") ++
    check(iv < iii, f"${at(m)}: 40Gbps+SSD at $iv%.2f s does not beat 40Gbps+HDD at $iii%.2f s") ++
    check(both > 6.0 && both < 45.0,
      f"${at(m)}: 40Gbps+SSD gain $both%.1f%% is outside (6%%, 45%%)") ++
    check(pII < pIII && pIII < pIV, f"${at(m)}: bad-partitioner penalty ${100 * pII}%.1f%%, " +
      f"${100 * pIII}%.1f%%, ${100 * pIV}%.1f%% does not grow from (ii) to (iv)")
  }

  // ------------------------------------------------------------------ PARSEL

  /** PARSEL's choice for one (dataset, algorithm) pair: the picked metric
    * row, which names the dataset, the partitioner and the granularity.
    */
  final case class ParselPick(kind: Parsel.AlgoKind, pick: PartitionMetrics)

  /** PARSEL's partitioner and granularity for every (dataset, algorithm)
    * pair at 1/`timedDiv` scale, from metrics alone, computed once per
    * (dataset, granularity).
    */
  def parselPicks(spark: SparkSession): Seq[ParselPick] = {
    val div = timedDiv
    val largest = Datasets.all.map(_.paperEdges / div).max
    Datasets.all.flatMap { spec =>
      val edges = Datasets.edges(spark, spec, div).cache()
      val numEdges = edges.count()
      try {
        val partsOf = Parsel.algoKinds.map(kind =>
          kind -> Parsel.granularity(kind, numEdges, largest, coarseParts, fineParts))
        val metrics = partsOf.map(_._2).distinct
          .map(parts => parts -> Metrics.computeAll(spec.name, edges, parts)).toMap
        partsOf.map { case (kind, parts) =>
          ParselPick(kind, Parsel.selectFromMetrics(metrics(parts), kind.algoClass))
        }
      } finally edges.unpersist()
    }
  }

  /** One line per pick: the chosen strategy, granularity and criterion value. */
  def printParselPicks(picks: Seq[ParselPick]): Unit = {
    println(s"=== PARSEL picks from metrics (scale 1/$timedDiv) ===")
    for (ParselPick(kind, m) <- picks)
      println(f"${m.dataset}%-14s ${kind.name}%-20s -> ${m.partitioner}%-5s " +
        f"@ ${m.numPartitions}%3d partitions (criterion=${Parsel.criterion(m, kind.algoClass)})")
  }

  // ---------------------------------------------------------------- dispatch

  /** Every paper result `repro.jobs.Main` computes, prints and checks, by
    * name. Running one returns its failed checks.
    */
  val experiments: Seq[(String, SparkSession => Seq[String])] = Seq(
    "table1" -> { s => val rows = table1(s); printTable1(rows); table1Checks(rows) },
    "metrics" -> { s =>
      val (coarse, fine) = metricsTables(s)
      printMetricsTable("Table 2", PaperCoarse, coarse)
      printMetricsTable("Table 3", PaperFine, fine)
      metricsChecks(PaperCoarse, coarse) ++ metricsChecks(PaperFine, fine) ++
        crossTableChecks(coarse, fine)
    },
    "correlation" -> (s => timedSweeps(s, timedDatasets, timedDiv).flatMap { case (k, cells) =>
      printSweep(k, cells)
      sweepChecks(k, cells)
    }),
    "infra" -> { s => val (m, bytes) = infraInputs(s); printInfra(m, bytes); infraChecks(m, bytes) },
    "parsel" -> { s => printParselPicks(parselPicks(s)); Nil })
}
