package cutfit.bench

import org.apache.spark.graphx.{Graph, VertexId}
import org.apache.spark.sql.DataFrame
import repro.partition.{PartitionMetrics, Strategy}

/** An edge list collected to the Spark driver, for recomputing outputs there. */
final case class LocalEdges(src: Array[Long], dst: Array[Long]) {
  def size: Int = src.length
}

object LocalEdges {
  def collect(edges: DataFrame): LocalEdges = {
    val rows = edges.select("src", "dst").collect()
    LocalEdges(rows.map(_.getLong(0)), rows.map(_.getLong(1)))
  }
}

/** The five partitioning metrics, recomputed on the Spark driver with
  * [[Strategy.pid]] alone: an independent check of `repro.partition.Metrics`.
  */
object DriverMetrics {

  def compute(dataset: String, edges: LocalEdges, strategy: Strategy, numParts: Int): PartitionMetrics = {
    val sizes = new Array[Long](numParts)
    // One key per (vertex, partition) replica; vertex IDs stay far below
    // Long.MaxValue / numParts for every generated graph.
    val replicaKeys = new Array[Long](2 * edges.size)
    var i = 0
    while (i < edges.size) {
      val p = strategy.pid(edges.src(i), edges.dst(i), numParts)
      sizes(p) += 1
      replicaKeys(2 * i) = edges.src(i) * numParts + p
      replicaKeys(2 * i + 1) = edges.dst(i) * numParts + p
      i += 1
    }
    java.util.Arrays.sort(replicaKeys)
    var vertices, nonCut, cut, commCost = 0L
    var k = 0
    while (k < replicaKeys.length) {
      val v = replicaKeys(k) / numParts
      var replicas = 0L
      var last = -1L
      while (k < replicaKeys.length && replicaKeys(k) / numParts == v) {
        if (replicaKeys(k) != last) { replicas += 1; last = replicaKeys(k) }
        k += 1
      }
      vertices += 1
      if (replicas == 1) nonCut += 1 else { cut += 1; commCost += replicas }
    }
    val numEdges = sizes.sum
    val mean = numEdges.toDouble / numParts
    val balance = if (numEdges == 0) 1.0 else sizes.max / mean
    val partStDev = math.sqrt(sizes.map(s => (s - mean) * (s - mean)).sum / numParts)
    PartitionMetrics(dataset, strategy.name, numParts, numEdges, vertices,
      balance, nonCut, cut, commCost, partStDev)
  }

  /** Equal counts, and balance/partStDev equal to a relative 1e-12. */
  def agree(a: PartitionMetrics, b: PartitionMetrics): Boolean = {
    def close(x: Double, y: Double) = math.abs(x - y) <= 1e-12 * math.max(1.0, math.abs(x))
    a.copy(balance = 0, partStDev = 0) == b.copy(balance = 0, partStDev = 0) &&
      close(a.balance, b.balance) && close(a.partStDev, b.partStDev)
  }
}

/** An order-independent digest of a vertex attribute, computed by one Spark
  * action: vertex count, the sum of a real-valued attribute and its sum
  * weighted by a per-vertex hash, and a wrapping hash sum of integer values.
  */
final case class Checksum(vertices: Long, sum: Double, weighted: Double, hash: Long) {
  def +(o: Checksum): Checksum =
    Checksum(vertices + o.vertices, sum + o.sum, weighted + o.weighted, hash + o.hash)

  /** Same counts and hashes, real sums equal to a relative 1e-9. */
  def matches(o: Checksum): Boolean = {
    def close(x: Double, y: Double) = math.abs(x - y) <= 1e-9 * math.max(1.0, math.abs(x))
    vertices == o.vertices && hash == o.hash && close(sum, o.sum) && close(weighted, o.weighted)
  }

  override def toString: String = f"n=$vertices sum=$sum%.9f weighted=$weighted%.9f hash=$hash%x"
}

object Checksum {
  val Zero = Checksum(0L, 0.0, 0.0, 0L)

  /** SplitMix64 finaliser. */
  def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  private def weight(v: VertexId): Double = 0.5 + (mix(v) >>> 11) * (1.0 / (1L << 53))

  def ofReals(g: Graph[Double, _]): Checksum =
    g.vertices.map { case (v, x) => Checksum(1L, x, x * weight(v), 0L) }.fold(Zero)(_ + _)

  def ofLongs(g: Graph[Long, _]): Checksum =
    g.vertices.map { case (v, x) => Checksum(1L, x.toDouble, 0.0, mix(v * 31 + mix(x))) }
      .fold(Zero)(_ + _)

  def ofDistances(g: Graph[Map[VertexId, Int], _]): Checksum =
    g.vertices.map { case (v, m) =>
      Checksum(1L, m.values.sum.toDouble, 0.0,
        m.iterator.map { case (l, d) => mix(v * 31 + mix(l * 31 + d)) }.sum)
    }.fold(Zero)(_ + _)
}
