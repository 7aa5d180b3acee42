package repro.partition

import org.apache.spark.graphx.{PartitionID, PartitionStrategy, VertexId}
import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.udf

/** An edge-partitioning strategy: a pure function `(src, dst, numParts) → pid`.
  *
  * Each strategy is usable in three ways:
  *   - as a GraphX [[org.apache.spark.graphx.PartitionStrategy]] via
  *     `Graph.partitionBy` (the paper's execution path),
  *   - as a plain Scala function for in-memory reference computations,
  *   - as a Catalyst [[Column]] via [[pidColumn]] for DataFrame-side metric
  *     computation (and for exporting partition assignments to the DuckDB
  *     oracle, which cannot evaluate JVM hash functions itself).
  *
  * All strategies are total for non-negative vertex IDs and any `numParts > 0`.
  */
sealed abstract class Strategy(val name: String) extends PartitionStrategy with Serializable {

  /** Partition of the directed edge `(src, dst)` among `numParts` partitions. */
  def pid(src: Long, dst: Long, numParts: Int): Int

  final override def getPartition(src: VertexId, dst: VertexId, numParts: PartitionID): PartitionID =
    pid(src, dst, numParts)

  /** Catalyst expression computing [[pid]] over `src`/`dst` columns. */
  def pidColumn(src: Column, dst: Column, numParts: Int): Column = {
    val self = this // capture the strategy, not the enclosing closure state
    udf((s: Long, d: Long) => self.pid(s, d, numParts)).apply(src, dst)
  }

  override def toString: String = name
}

/** The six edge-partitioning strategies evaluated by the paper.
  *
  * RVC/1D/2D/CRVC re-implement GraphX's built-in strategies bit-for-bit
  * (asserted against `org.apache.spark.graphx.PartitionStrategy.*` in tests);
  * SC and DC are the paper's two proposed modulo partitioners.
  */
object Partitioners {

  /** Large prime used by GraphX to decorrelate vertex IDs from partition
    * counts that share factors with the ID distribution.
    */
  val MixingPrime: Long = 1125899906842597L

  /** Random Vertex Cut: hash of the ordered (src, dst) pair. Collocates all
    * same-direction edges between two vertices.
    */
  case object RVC extends Strategy("RVC") {
    def pid(src: Long, dst: Long, numParts: Int): Int =
      math.abs((src, dst).hashCode()) % numParts
  }

  /** Edge Partition 1D: hash of the source vertex only. Collocates every
    * out-edge of a vertex, so a "superstar" source serializes into one
    * partition — the imbalance the paper measures on the follow graphs.
    */
  case object OneD extends Strategy("1D") {
    def pid(src: Long, dst: Long, numParts: Int): Int =
      (math.abs(src * MixingPrime) % numParts).toInt
  }

  /** Edge Partition 2D: sqrt(N) × sqrt(N) grid addressed by (src-hash column,
    * dst-hash row). Guarantees at most 2·sqrt(N) replicas per vertex. The
    * non-perfect-square branch mirrors GraphX's layout exactly.
    */
  case object TwoD extends Strategy("2D") {
    def pid(src: Long, dst: Long, numParts: Int): Int = {
      val ceilSqrt = math.ceil(math.sqrt(numParts)).toInt
      if (ceilSqrt * ceilSqrt == numParts) {
        val col = (math.abs(src * MixingPrime) % ceilSqrt).toInt
        val row = (math.abs(dst * MixingPrime) % ceilSqrt).toInt
        (col * ceilSqrt + row) % numParts
      } else {
        val cols        = ceilSqrt
        val rows        = (numParts + cols - 1) / cols
        val lastColRows = numParts - rows * (cols - 1)
        val col         = (math.abs(src * MixingPrime) % numParts / rows).toInt
        val row         = (math.abs(dst * MixingPrime) % (if (col < cols - 1) rows else lastColRows)).toInt
        col * rows + row
      }
    }
  }

  /** Canonical Random Vertex Cut: hash of the (min, max)-ordered pair, so
    * (u, v) and (v, u) land in the same partition — halving the replication
    * of reciprocated edges in symmetric graphs.
    */
  case object CRVC extends Strategy("CRVC") {
    def pid(src: Long, dst: Long, numParts: Int): Int =
      if (src < dst) math.abs((src, dst).hashCode()) % numParts
      else math.abs((dst, src).hashCode()) % numParts
  }

  /** Source Cut (paper contribution): raw modulo on the source ID. Preserves
    * any locality encoded in vertex-ID order (e.g. road-network grids) at the
    * cost of balance when IDs are not uniform.
    */
  case object SC extends Strategy("SC") {
    def pid(src: Long, dst: Long, numParts: Int): Int =
      (math.floorMod(src, numParts.toLong)).toInt
  }

  /** Destination Cut (paper contribution): raw modulo on the destination ID. */
  case object DC extends Strategy("DC") {
    def pid(src: Long, dst: Long, numParts: Int): Int =
      (math.floorMod(dst, numParts.toLong)).toInt
  }

  /** All six strategies, in the paper's presentation order. */
  val all: Seq[Strategy] = Seq(RVC, OneD, TwoD, CRVC, SC, DC)
}
