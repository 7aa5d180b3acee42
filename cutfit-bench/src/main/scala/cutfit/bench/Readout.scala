package cutfit.bench

import repro.partition.PartitionMetrics

/** Per-layer metrics of a traced pass, and the per-job readout that puts the
  * shuffle records of each algorithm job next to the cell's CommCost, Cut and
  * Balance.
  */
final case class Readout(tracer: Tracer, cells: Seq[Cell]) {
  import Readout._

  /** The cell's partitioning metrics, recomputed on the Spark driver (no Spark job). */
  private val cellMetrics: Map[String, PartitionMetrics] = cells.collect {
    case Cell(label, in, parts, Some(s)) => label -> DriverMetrics.compute(in.name, in.local, s, parts)
  }.toMap

  def metrics: Seq[(String, Double, String)] = {
    val commCost = cellMetrics.values.map(_.commCost).sum.toDouble
    JobSpans.flatMap { name =>
      val s = tracer.stats(name)
      val base = Seq(
        ("s", s.seconds, "s"), ("jobs", s.jobs.toDouble, "count"),
        ("stages", s.stages.size.toDouble, "count"), ("tasks", s.tasks.toDouble, "count"),
        ("task_s", s.runMs / 1e3, "s"), ("cpu_s", s.cpuNs / 1e9, "s"),
        ("wait_s", s.waitMs / 1e3, "s"), ("gc_s", s.gcMs / 1e3, "s"),
        ("shuffle_write_records", s.shuffleRecords.toDouble, "records"),
        ("shuffle_write_bytes", s.shuffleBytes.toDouble, "B"),
        ("spill_bytes", s.spillBytes.toDouble, "B"))
      val extra = if (!name.startsWith("algorithms.")) Nil else Seq(
        ("task_skew", if (s.stageSkews.isEmpty) 0.0 else s.stageSkews.sum / s.stageSkews.size, "ratio"),
        ("rdds_left", s.rddsLeft.toDouble, "count"),
        ("records_per_commcost", if (s.jobs == 0 || commCost == 0) 0.0 else s.shuffleRecords / commCost, "ratio"))
      (base ++ extra).map { case (q, v, u) => (s"$name.$q", v, u) }
    } :+ (("core.parsel.s", tracer.stats("core.parsel").seconds, "s"))
  }

  /** Shuffle records per job of every algorithm span, by cell. */
  def print(): Unit = {
    val jobs = tracer.listener.jobs.values.filter(_.span.startsWith("algorithms.")).toSeq
    cells.foreach { cell =>
      val m = cellMetrics.get(cell.label)
      val header = m.fold("")(m => f" commCost=${m.commCost} cut=${m.cut} balance=${m.balance}%.3f")
      println(s"trace ${cell.label}$header")
      jobs.filter(_.cell == cell.label).groupBy(_.span).toSeq.sortBy(_._1).foreach { case (span, js) =>
        println(s"  $span records/job: ${js.sortBy(_.jobId).map(_.shuffleRecords).mkString(" ")}")
      }
    }
  }
}

object Readout {
  /** Spans that run Spark jobs, in layer order. */
  val JobSpans: Seq[String] = Seq(
    "graph.generate", "core.sample_vertices", "partition.compute_all", "algorithms.build",
    "algorithms.pagerank", "algorithms.cc", "algorithms.sssp", "algorithms.triangles")
}
