package cutfit.bench

import org.apache.spark.graphx.{Graph, VertexId}
import org.apache.spark.graphx.lib.TriangleCount
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.algorithms._
import repro.core.{Parsel, Runner}
import repro.graph.Datasets
import repro.partition.{Metrics, PartitionMetrics, Partitioners, Strategy}

/** One generated input graph, materialized before the timed pass, with the
  * driver-side copy of its edges that the checks use.
  */
final case class Input(name: String, edges: DataFrame, local: LocalEdges) {
  def numEdges: Long = local.size
}

/** One unit of timed work: its span runs Spark jobs against one input. The
  * result is whatever the checks after the pass need.
  */
final case class Cell(label: String, input: Input, parts: Int, strategy: Option[Strategy])(
    val run: () => Any)

/** A named slice of the evaluation: set-up work, a fixed list of cells, and
  * the untimed checks of the cells' outputs.
  */
abstract class Workload(val spark: SparkSession, val tracer: Tracer, val seed: Long) {
  /** Set-up after input generation: references and landmarks. */
  def prepare(): Unit
  def cells: Seq[Cell]
  /** Problems found in one pass's results, in cell order; empty = correct. */
  def check(results: Seq[(Cell, Option[Any])]): Seq[String]
  /** Datasets (Table 1 name, scale divisor) this workload generates. */
  def datasets: Seq[(String, Int)]

  private var inputsByName = Map.empty[String, Input]
  def input(name: String): Input = inputsByName(name)

  /** Generate one dataset analogue from the benchmark seed and pin it with a
    * local checkpoint, so that no later call regenerates it.
    */
  def generate(name: String, div: Int): DataFrame = {
    val spec = Datasets.byName(name)
    tracer.span("graph.generate", name) {
      Datasets.edges(spark, spec.copy(seed = spec.seed + 1000L * seed), div)
        .localCheckpoint(eager = true)
    }
  }

  /** Make the generated inputs available to the cells, each with its edges
    * collected to the driver for the checks.
    */
  def install(generated: Seq[(String, DataFrame)]): Unit =
    inputsByName = generated.map { case (n, e) => n -> Input(n, e, LocalEdges.collect(e)) }.toMap
}

object Workload {
  val names: Seq[String] = Seq("metrics-table", "edge-sweep", "triangle-sweep")

  def apply(name: String, spark: SparkSession, tracer: Tracer, seed: Long): Workload = name match {
    case "metrics-table"  => new MetricsTable(spark, tracer, seed)
    case "edge-sweep"     => new EdgeSweep(spark, tracer, seed)
    case "triangle-sweep" => new TriangleSweep(spark, tracer, seed)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other'; expected one of ${names.mkString(", ")}")
  }
}

/** `Metrics.computeAll` at the paper's 128 and 256 partitions over the
  * locality-friendly grid and the superstar crawl, then PARSEL's choice for
  * both algorithm classes. No algorithm runs.
  */
final class MetricsTable(spark: SparkSession, tracer: Tracer, seed: Long)
    extends Workload(spark, tracer, seed) {
  val datasets = Seq("RoadNet-PA" -> 400, "follow-jul" -> 1600)

  def prepare(): Unit = ()

  def cells: Seq[Cell] = for {
    (name, _) <- datasets
    parts <- Seq(128, 256)
  } yield {
    val in = input(name)
    Cell(s"$name/$parts", in, parts, None) { () =>
      val rows = tracer.span("partition.compute_all", s"$name/$parts") {
        Metrics.computeAll(name, in.edges, parts)
      }
      val picks = tracer.span("core.parsel", s"$name/$parts") {
        Seq(Parsel.EdgeBound, Parsel.VertexBound).map(Parsel.selectFromMetrics(rows, _))
      }
      (rows, picks)
    }
  }

  def check(results: Seq[(Cell, Option[Any])]): Seq[String] = results.flatMap {
    case (_, None) => Nil
    case (cell, Some((rows: Seq[PartitionMetrics] @unchecked, picks: Seq[PartitionMetrics] @unchecked))) =>
      val expected = Partitioners.all.map(s =>
        DriverMetrics.compute(cell.input.name, cell.input.local, s, cell.parts))
      val rowProblems =
        if (rows.size != expected.size) Seq(s"${cell.label}: ${rows.size} metric rows, expected ${expected.size}")
        else rows.zip(expected).collect {
          case (got, want) if !DriverMetrics.agree(got, want) => s"${cell.label}: got $got, expected $want"
        }
      val wantPicks = Seq(Parsel.EdgeBound, Parsel.VertexBound).map(c =>
        expected.minBy(m => (Parsel.criterion(m, c), m.balance)).partitioner)
      val pickProblems =
        if (picks.map(_.partitioner) == wantPicks) Nil
        else Seq(s"${cell.label}: PARSEL picked ${picks.map(_.partitioner)}, expected $wantPicks")
      rowProblems ++ pickProblems
    case (cell, other) => Seq(s"${cell.label}: unexpected result $other")
  }
}

/** Shared shape of the two sweeps: build the partitioned graph, run the
  * algorithms on it, then unpersist the input graph the way
  * `Runner.timeRun` does (algorithm outputs stay as the algorithms leave
  * them).
  */
abstract class Sweep(spark: SparkSession, tracer: Tracer, seed: Long)
    extends Workload(spark, tracer, seed) {
  def dataset: String
  def div: Int
  def strategies: Seq[Strategy]
  def granularities: Seq[Int]
  /** (span, algorithm) pairs run on each built graph. */
  def algorithms: Seq[(String, Graph[Int, Int] => Checksum)]

  def datasets = Seq(dataset -> div)

  def runCell(in: Input, s: Strategy, parts: Int, label: String): Seq[(String, Checksum)] = {
    val graph = tracer.span("algorithms.build", label, parts) {
      val g = GraphBuilder.partitioned(in.edges, s, parts).cache()
      g.vertices.count()
      g
    }
    try algorithms.map { case (span, algo) => span -> tracer.span(span, label, parts)(algo(graph)) }
    finally graph.unpersist(blocking = false)
  }

  def cells: Seq[Cell] = for {
    parts <- granularities
    s <- strategies
  } yield {
    val in = input(dataset)
    val label = s"$dataset/${s.name}/$parts"
    Cell(label, in, parts, Some(s))(() => runCell(in, s, parts, label))
  }

  /** Expected checksum per algorithm span, when a reference exists. */
  def references: Map[String, Checksum] = Map.empty

  def check(results: Seq[(Cell, Option[Any])]): Seq[String] = {
    val done = results.collect {
      case (cell, Some(sums: Seq[(String, Checksum)] @unchecked)) => cell -> sums.toMap
    }
    algorithms.map(_._1).flatMap { span =>
      val want = references.get(span).orElse(done.headOption.map(_._2(span)))
      done.collect {
        case (cell, sums) if !want.exists(sums(span).matches) =>
          s"${cell.label} $span: ${sums(span)}, expected ${want.getOrElse("-")}"
      }
    }
  }
}

/** PageRank(10), CC(10) and single-landmark SSSP on the follow analogue:
  * the Pregel/`aggregateMessages` superstep path with small messages, where
  * CommCost is claimed to predict time, under superstar skew.
  */
final class EdgeSweep(spark: SparkSession, tracer: Tracer, seed: Long) extends Sweep(spark, tracer, seed) {
  val dataset = "follow-jul"
  val div = 2000
  val strategies = Seq(Partitioners.RVC, Partitioners.TwoD, Partitioners.OneD)
  val granularities = Seq(8)
  private var landmark: VertexId = -1L

  def algorithms: Seq[(String, Graph[Int, Int] => Checksum)] = Seq(
    "algorithms.pagerank" -> (g => Checksum.ofReals(PageRankAlg.run(g, 10))),
    "algorithms.cc" -> (g => Checksum.ofLongs(ConnectedComponentsAlg.run(g, maxIterations = 10))),
    "algorithms.sssp" -> (g => Checksum.ofDistances(ShortestPathsAlg.run(g, Seq(landmark)))))

  /** The landmark is the sampled candidate with the most in-edges, so that
    * SSSP reaches the core on every seed rather than stopping at a fringe
    * vertex nothing points to.
    */
  def prepare(): Unit = {
    val in = input(dataset)
    val candidates = tracer.span("core.sample_vertices")(Runner.sampleVertices(in.edges, 16, seed))
    val inDegree = in.local.dst.groupMapReduce(identity)(_ => 1)(_ + _)
    landmark = candidates.maxBy(v => (inDegree.getOrElse(v, 0), -v))
  }
}

/** TriangleCount on the Pocek analogue for all six strategies at coarse and
  * fine granularity: one heavy round whose per-vertex state grows with
  * degree, where Cut is claimed to predict time.
  */
final class TriangleSweep(spark: SparkSession, tracer: Tracer, seed: Long) extends Sweep(spark, tracer, seed) {
  val dataset = "Pocek"
  val div = 1000
  val strategies = Partitioners.all
  val granularities = Seq(8, 16)
  private var reference = Map.empty[String, Checksum]

  private def perVertex(g: Graph[Int, _]): Checksum = Checksum.ofLongs(g.mapVertices((_, c) => c.toLong))

  def algorithms: Seq[(String, Graph[Int, Int] => Checksum)] =
    Seq("algorithms.triangles" -> (g => perVertex(TriangleCountAlg.run(g))))

  override def references: Map[String, Checksum] = reference

  def prepare(): Unit = {
    val in = input(dataset)
    reference = tracer.span("setup.reference") {
      val g = GraphBuilder.partitioned(in.edges, Partitioners.RVC, granularities.head).cache()
      try Map("algorithms.triangles" -> perVertex(TriangleCount.run(g)))
      finally g.unpersist(blocking = false)
    }
  }
}
