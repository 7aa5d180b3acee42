package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The five partitioning metrics of Tables 2/3 for one (graph, strategy,
  * numPartitions) combination. Semantics per the paper's Appendix A:
  *
  *   - `balance`   — edges in the biggest partition / mean edges per partition
  *                   (mean over all `numPartitions` slots, empty ones included);
  *   - `nonCut`    — vertices resident in exactly one partition;
  *   - `cut`       — vertices replicated into more than one partition;
  *   - `commCost`  — total replicas of cut vertices: the per-superstep message
  *                   count of a BSP computation keeping fixed state per vertex;
  *   - `partStDev` — population standard deviation of per-partition edge counts.
  */
final case class PartitionMetrics(
    dataset: String,
    partitioner: String,
    numPartitions: Int,
    numEdges: Long,
    numVertices: Long,
    balance: Double,
    nonCut: Long,
    cut: Long,
    commCost: Long,
    partStDev: Double) {

  /** One formatted row in the layout of the paper's Tables 2/3. */
  def tableRow: String =
    f"$dataset%-14s $partitioner%-5s $balance%7.2f $nonCut%12d $cut%12d $commCost%14d $partStDev%14.2f"
}

/** DataFrame/Catalyst computation of the partitioning metrics.
  *
  * Input edge lists are DataFrames with `src: Long, dst: Long` columns. All
  * strategies are measured in one pass: [[assign]] tags every edge with each
  * strategy's partition id, and two aggregations over that table give every
  * strategy's partition sizes and replica counts. Tests hand the *same
  * assigned table* to the DuckDB oracle and re-derive every metric in
  * portable SQL.
  */
object Metrics {

  /** Column names required of every edge list. */
  val Src = "src"
  val Dst = "dst"

  /** Every edge once per strategy, with columns `src, dst, s, pid`: `s` is the
    * strategy's index in `strategies` and `pid` its partition of the edge.
    * One projection computes all the pids, then an explode splits the rows.
    */
  def assign(edges: DataFrame, strategies: Seq[Strategy], numParts: Int): DataFrame =
    edges.select(col(Src), col(Dst),
      posexplode(array(strategies.map(_.pidColumn(col(Src), col(Dst), numParts)): _*))
        .as(Seq("s", "pid")))

  /** Edges per `(s, pid)`; a partition without edges has no row. */
  def partitionSizes(assigned: DataFrame): DataFrame =
    assigned.groupBy("s", "pid").agg(count(lit(1)).as("n"))

  /** Per strategy `s`: the vertices held by one partition (`nonCut`) and by
    * several (`cut`), the replicas of the cut vertices (`commCost`) and all
    * vertices (`numVertices`). One shuffle by `(s, v)` serves both the
    * distinct `(s, v, pid)` and the count per `(s, v)`; without it Spark
    * shuffles by `(s, v, pid)` and then again by `(s, v)`.
    */
  def replicaSummary(assigned: DataFrame): DataFrame = {
    val replicas = col("replicas")
    assigned
      .select(col("s"), col("pid"), explode(array(col(Src), col(Dst))).as("v"))
      .repartition(col("s"), col("v"))
      .distinct()
      .groupBy("s", "v")
      .agg(count(lit(1)).as("replicas"))
      .groupBy("s")
      .agg(
        sum(when(replicas === 1, 1L).otherwise(0L)).as("nonCut"),
        sum(when(replicas > 1, 1L).otherwise(0L)).as("cut"),
        sum(when(replicas > 1, replicas).otherwise(0L)).as("commCost"),
        count(lit(1)).as("numVertices"))
  }

  /** Metrics for every strategy over one graph, in the order of `strategies`.
    * `edges` are read twice and left as the caller gave them: a caller that
    * cached them (`Experiments.withEdges`) keeps its cache, and an uncached
    * input is recomputed, which yields the same edges.
    */
  def computeAll(
      dataset: String,
      edges: DataFrame,
      numParts: Int,
      strategies: Seq[Strategy] = Partitioners.all): Seq[PartitionMetrics] = {
    require(numParts > 0, s"numParts must be positive, got $numParts")
    val assigned = assign(edges, strategies, numParts)
    val sizes = partitionSizes(assigned).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2)).toMap
    val replicas = replicaSummary(assigned).collect()
      .map(r => r.getInt(0) -> ((r.getLong(1), r.getLong(2), r.getLong(3), r.getLong(4)))).toMap
    strategies.zipWithIndex.map { case (strategy, s) =>
      val parts     = Array.tabulate(numParts)(p => sizes.getOrElse((s, p), 0L))
      val numEdges  = parts.sum
      val mean      = numEdges.toDouble / numParts
      val balance   = if (numEdges == 0) 1.0 else parts.max / mean
      val partStDev = math.sqrt(parts.map(n => (n - mean) * (n - mean)).sum / numParts)
      val (nonCut, cut, commCost, numVertices) = replicas.getOrElse(s, (0L, 0L, 0L, 0L))
      PartitionMetrics(dataset, strategy.name, numParts, numEdges, numVertices,
        balance, nonCut, cut, commCost, partStDev)
    }
  }
}
