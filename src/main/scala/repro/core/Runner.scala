package repro.core

import org.apache.spark.graphx.{Graph, VertexId}
import org.apache.spark.sql.DataFrame
import repro.algorithms._
import repro.partition.{Partitioners, Strategy}

/** Timing harness for the evaluation sweeps: run one of the four algorithms
  * over a graph partitioned by one of the six strategies and report wall
  * time, forcing materialization so lazy RDD graphs don't undercount.
  */
object Runner {

  /** An executable, materializing algorithm instance. */
  sealed abstract class Algo(val kind: Parsel.AlgoKind) {
    def name: String = kind.name

    /** Run to completion; the return value forces evaluation. */
    def execute(graph: Graph[Int, Int]): Long
  }

  final case class PageRank(iters: Int = 10) extends Algo(Parsel.PR) {
    def execute(graph: Graph[Int, Int]): Long =
      PageRankAlg.run(graph, iters).vertices.count()
  }

  /** The paper runs CC "for 10 iterations" like PageRank, not to fixpoint. */
  final case class ConnectedComponents(maxIters: Int = 10) extends Algo(Parsel.CC) {
    def execute(graph: Graph[Int, Int]): Long =
      ConnectedComponentsAlg.run(graph, maxIterations = maxIters).vertices.count()
  }

  case object TriangleCount extends Algo(Parsel.TR) {
    def execute(graph: Graph[Int, Int]): Long =
      TriangleCountAlg.total(graph)
  }

  /** SSSP from `numSources` deterministic pseudo-random landmarks (the paper
    * averages over 5 random source vertices); each source is a separate run,
    * as in the paper.
    */
  final case class Sssp(sources: Seq[VertexId]) extends Algo(Parsel.SSSP) {
    def execute(graph: Graph[Int, Int]): Long =
      sources.map(s => ShortestPathsAlg.run(graph, Seq(s)).vertices.count()).sum
  }

  /** Deterministic "random" vertex sample: the `n` vertices minimizing a
    * mixed hash of their ID — stable across runs and partitioners. The
    * multiplier stays at 35 bits so the product cannot overflow a Long under
    * Spark's ANSI arithmetic for any realistic vertex ID.
    */
  def sampleVertices(edges: DataFrame, n: Int, seed: Long = 0): Seq[VertexId] = {
    import org.apache.spark.sql.functions._
    edges.select(col("src").as("v"))
      .union(edges.select(col("dst").as("v")))
      .distinct()
      .select(col("v"), pmod(col("v") * (25214903917L + 2 * seed) + 11L, lit(1000003L)).as("h"))
      .orderBy("h", "v")
      .limit(n)
      .collect()
      .map(_.getLong(0))
      .toSeq
  }

  /** One timed measurement. */
  final case class TimedRun(
      dataset: String,
      algorithm: String,
      partitioner: String,
      numPartitions: Int,
      millis: Double)

  /** Wall time of one run. Partitioning happens inside the timed region —
    * partitioning cost is part of what the paper compares — but graph
    * construction input is pre-cached by the caller.
    */
  def timeRun(
      dataset: String,
      edges: DataFrame,
      algo: Algo,
      strategy: Strategy,
      numParts: Int): TimedRun = {
    val graph = GraphBuilder.partitioned(edges, strategy, numParts).cache()
    val start = System.nanoTime()
    algo.execute(graph)
    val millis = (System.nanoTime() - start) / 1e6
    // Untimed, and blocking for the reason given in `GraphOps.profile`.
    graph.unpersist(blocking = true)
    TimedRun(dataset, algo.name, strategy.name, numParts, millis)
  }

  /** Pearson correlation coefficient — the statistic behind Figures 3–6. */
  def pearson(xs: Seq[Double], ys: Seq[Double]): Double = {
    require(xs.size == ys.size && xs.size >= 2, "need >= 2 paired samples")
    val n  = xs.size
    val mx = xs.sum / n
    val my = ys.sum / n
    val cov = xs.zip(ys).map { case (x, y) => (x - mx) * (y - my) }.sum
    val sx  = math.sqrt(xs.map(x => (x - mx) * (x - mx)).sum)
    val sy  = math.sqrt(ys.map(y => (y - my) * (y - my)).sum)
    if (sx == 0 || sy == 0) 0.0 else cov / (sx * sy)
  }
}
