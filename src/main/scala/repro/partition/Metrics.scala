package repro.partition

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

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
  * Input edge lists are DataFrames with `src: Long, dst: Long` columns. The
  * partition assignment is appended as a `pid` column via the strategy's
  * Catalyst expression, which lets tests hand the *same assigned table* to the
  * DuckDB oracle and re-derive every metric in portable SQL.
  */
object Metrics {

  /** Column names required of every edge list. */
  val Src = "src"
  val Dst = "dst"

  /** Edge list with the strategy's partition id appended as `pid`. */
  def withPid(edges: DataFrame, strategy: Strategy, numParts: Int): DataFrame =
    edges.withColumn("pid", strategy.pidColumn(col(Src), col(Dst), numParts))

  /** Per-partition edge counts for all `numParts` slots (empty slots → 0). */
  def partitionSizes(assigned: DataFrame, numParts: Int): Array[Long] = {
    val counted = assigned
      .groupBy("pid")
      .agg(count(lit(1)).as("n"))
      .collect()
      .map(r => r.getInt(0) -> r.getLong(1))
      .toMap
    Array.tabulate(numParts)(p => counted.getOrElse(p, 0L))
  }

  /** Vertex → number of distinct partitions holding a replica of it. */
  def replicaCounts(assigned: DataFrame): DataFrame =
    assigned
      .select(col(Src).as("v"), col("pid"))
      .union(assigned.select(col(Dst).as("v"), col("pid")))
      .distinct()
      .groupBy("v")
      .agg(countDistinct("pid").as("replicas"))

  /** All five metrics for one (graph, strategy, numParts) combination. */
  def compute(
      dataset: String,
      edges: DataFrame,
      strategy: Strategy,
      numParts: Int): PartitionMetrics = {
    require(numParts > 0, s"numParts must be positive, got $numParts")
    val assigned = withPid(edges, strategy, numParts).cache()
    try {
      val sizes     = partitionSizes(assigned, numParts)
      val numEdges  = sizes.sum
      val mean      = numEdges.toDouble / numParts
      val balance   = if (numEdges == 0) 1.0 else sizes.max / mean
      val partStDev = math.sqrt(sizes.map(s => (s - mean) * (s - mean)).sum / numParts)

      val Row(nonCut: Long, cutV: Long, commCost: Long, numVertices: Long) = replicaCounts(assigned)
        .agg(
          sum(when(col("replicas") === 1, 1L).otherwise(0L)).as("nonCut"),
          sum(when(col("replicas") > 1, 1L).otherwise(0L)).as("cut"),
          coalesce(sum(when(col("replicas") > 1, col("replicas"))), lit(0L)).as("commCost"),
          count(lit(1)).as("numVertices"))
        .head()

      PartitionMetrics(dataset, strategy.name, numParts, numEdges, numVertices,
        balance, nonCut, cutV, commCost, partStDev)
    } finally {
      assigned.unpersist()
    }
  }

  /** Metrics for every strategy over one graph; caches `edges` unless the caller did. */
  def computeAll(
      dataset: String,
      edges: DataFrame,
      numParts: Int,
      strategies: Seq[Strategy] = Partitioners.all): Seq[PartitionMetrics] = {
    val owned = edges.storageLevel == StorageLevel.NONE
    if (owned) edges.cache()
    try strategies.map(s => compute(dataset, edges, s, numParts))
    finally if (owned) edges.unpersist()
  }
}
