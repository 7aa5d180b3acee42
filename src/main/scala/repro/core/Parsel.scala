package repro.core

import repro.partition.PartitionMetrics

/** The paper's partitioning selector (named PARSEL in the published version):
  * tailor the partitioning strategy and granularity to the computation and
  * the dataset, using the cheap-to-compute partitioning metrics as proxies
  * for runtime.
  *
  * Selection rule (paper §4, "Overall, we found …"):
  *   - algorithms whose complexity scales with the number of *edges* and whose
  *     per-vertex work is small (PageRank, Connected Components, SSSP) are
  *     predicted by **CommCost** — pick the strategy minimizing it;
  *   - algorithms keeping heavy per-vertex state (Triangle Count) are
  *     predicted by **Cut** — pick the strategy minimizing that.
  *
  * Granularity rule (paper §4 findings per algorithm):
  *   - PageRank is communication-bound: finer grain only adds messages →
  *     coarse;
  *   - Connected Components converges unevenly: fine grain wins on all but
  *     the smallest datasets (up to 22 %) → fine when the graph is large;
  *   - Triangle Count: fine grain wins consistently (up to 40 %) → fine;
  *   - SSSP: no consistent effect → coarse (cheaper scheduling).
  */
object Parsel {

  /** Which metric predicts an algorithm's runtime, by the metric's name. */
  sealed abstract class AlgoClass(val metric: String)
  case object EdgeBound   extends AlgoClass("CommCost") // per-edge work, small vertex state
  case object VertexBound extends AlgoClass("Cut")      // heavy per-vertex state

  /** The four evaluated algorithms with their predictive class. */
  sealed abstract class AlgoKind(val name: String, val algoClass: AlgoClass)
  case object PR   extends AlgoKind("PageRank", EdgeBound)
  case object CC   extends AlgoKind("ConnectedComponents", EdgeBound)
  case object TR   extends AlgoKind("TriangleCount", VertexBound)
  case object SSSP extends AlgoKind("SSSP", EdgeBound)

  val algoKinds: Seq[AlgoKind] = Seq(PR, CC, TR, SSSP)

  /** The metric value the selector minimizes for `algoClass`. */
  def criterion(m: PartitionMetrics, algoClass: AlgoClass): Long = algoClass match {
    case EdgeBound   => m.commCost
    case VertexBound => m.cut
  }

  /** The best row for `algoClass` among `metrics`, one row per candidate
    * strategy: the one minimizing the class's criterion (ties broken by
    * better balance, then by candidate order).
    */
  def selectFromMetrics(metrics: Seq[PartitionMetrics], algoClass: AlgoClass): PartitionMetrics = {
    require(metrics.nonEmpty, "need at least one metric row")
    metrics.minBy(m => (criterion(m, algoClass), m.balance))
  }

  /** Edge-count threshold above which a dataset counts as "large" for the CC
    * granularity rule, expressed as a fraction of the biggest dataset in the
    * sweep (the paper's cutoff separates Orkut/socLiveJournal/follow-* from
    * the rest at 128/256 partitions).
    */
  private val LargeGraphEdgeThresholdRatio = 0.25

  /** Granularity (partition count) heuristic per algorithm. */
  def granularity(
      kind: AlgoKind,
      numEdges: Long,
      largestSweepEdges: Long,
      coarse: Int,
      fine: Int): Int = kind match {
    case PR   => coarse
    case SSSP => coarse
    case TR   => fine
    case CC   =>
      if (numEdges >= (largestSweepEdges * LargeGraphEdgeThresholdRatio).toLong) fine
      else coarse
  }
}
