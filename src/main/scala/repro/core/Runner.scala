package repro.core

import org.apache.spark.graphx.VertexId
import org.apache.spark.sql.DataFrame
import repro.algorithms._
import repro.partition.Strategy

/** Timing harness for the evaluation sweeps: run one of the four algorithms
  * over a graph partitioned by one of the six strategies and report wall
  * time, forcing materialization so lazy RDD graphs don't undercount.
  */
object Runner {

  /** Supersteps of PageRank and of CC: the paper runs CC "for 10 iterations"
    * like PageRank, not to fixpoint.
    */
  private val Supersteps = 10

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

  /** Wall time in milliseconds of one run of `kind`. Partitioning happens
    * inside the timed region — partitioning cost is part of what the paper
    * compares — but graph construction input is pre-cached by the caller.
    * SSSP runs once from each of `landmarks`, as the paper averages over
    * random sources; the other algorithms ignore them.
    */
  def timeRun(
      edges: DataFrame,
      kind: Parsel.AlgoKind,
      strategy: Strategy,
      numParts: Int,
      landmarks: Seq[VertexId]): Double = {
    val graph = GraphBuilder.partitioned(edges, strategy, numParts).cache()
    val start = System.nanoTime()
    // Each result forces evaluation.
    kind match {
      case Parsel.PR   => PageRankAlg.run(graph, Supersteps).vertices.count()
      case Parsel.CC   => ConnectedComponentsAlg.run(graph, maxIterations = Supersteps).vertices.count()
      case Parsel.TR   => TriangleCountAlg.total(graph)
      case Parsel.SSSP => landmarks.map(s => ShortestPathsAlg.run(graph, Seq(s)).vertices.count()).sum
    }
    val millis = (System.nanoTime() - start) / 1e6
    // Untimed, and blocking for the reason given in `GraphOps.profile`.
    graph.unpersist(blocking = true)
    millis
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
