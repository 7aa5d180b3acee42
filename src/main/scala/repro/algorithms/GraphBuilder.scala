package repro.algorithms

import org.apache.spark.graphx.{Edge, Graph, PartitionStrategy}
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

/** Bridge from the DataFrame edge-list representation (used by the generators
  * and the metric layer) to a partitioned GraphX [[Graph]] (used by the
  * algorithms). Partitioning happens through GraphX's documented extension
  * point, `Graph.partitionBy(strategy, numParts)` — exactly the code path the
  * paper evaluates.
  */
object GraphBuilder {

  /** The graph of `edges` in their input layout, which `Graph.fromEdges` caches. */
  private def unpartitioned(edges: DataFrame): Graph[Int, Int] =
    Graph.fromEdges(edges.select("src", "dst").rdd.map(r => Edge(r.getLong(0), r.getLong(1), 1)),
      defaultValue = 1, edgeStorageLevel = StorageLevel.MEMORY_AND_DISK,
      vertexStorageLevel = StorageLevel.MEMORY_AND_DISK)

  /** Build a graph whose edges are distributed by `strategy` into `numParts`
    * partitions. Vertex and edge attributes are unit values; the algorithms
    * re-attach whatever state they need.
    */
  def partitioned(edges: DataFrame, strategy: PartitionStrategy, numParts: Int): Graph[Int, Int] =
    unpartitioned(edges).partitionBy(strategy, numParts)

  /** `use` applied to the cached graph [[partitioned]] builds. Afterwards,
    * whether `use` returns or throws, that graph and the unpartitioned one it
    * came from are unpersisted, blocking: an asynchronous removal can race the
    * ContextCleaner's removal of the same blocks, which logs "Asked to remove
    * block …, which does not exist".
    */
  def withGraph[A](edges: DataFrame, strategy: PartitionStrategy, numParts: Int)(
      use: Graph[Int, Int] => A): A = {
    val source = unpartitioned(edges)
    val graph = source.partitionBy(strategy, numParts).cache()
    try use(graph)
    finally {
      graph.unpersist(blocking = true)
      source.unpersist(blocking = true)
    }
  }
}
