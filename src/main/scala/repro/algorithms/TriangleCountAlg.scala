package repro.algorithms

import org.apache.spark.graphx._
import scala.reflect.ClassTag

/** Triangle counting from scratch, with the same semantics as GraphX's
  * `lib.TriangleCount` baseline: the graph is canonicalized (self-loops
  * dropped, each undirected edge kept once as src < dst), every vertex
  * gathers its neighbour set, and each edge contributes the size of the
  * endpoints' set intersection. Per-vertex counts halve the edge sums; the
  * global count divides by 3 (each triangle is seen at its three corners).
  *
  * This is the paper's "vertex-state-heavy" representative: the neighbour
  * sets are per-vertex state proportional to degree, which is why the Cut
  * metric — not CommCost — predicts its runtime.
  */
object TriangleCountAlg {

  /** Per-vertex triangle counts. */
  def run[VD: ClassTag, ED: ClassTag](graph: Graph[VD, ED]): Graph[Int, ED] = {
    // Canonicalize: undirected simple graph with src < dst per edge.
    val canonical = Graph(
      graph.vertices.mapValues(_ => 0),
      graph.edges
        .map(e =>
          if (e.srcId < e.dstId) (e.srcId, e.dstId) else (e.dstId, e.srcId))
        .filter { case (s, d) => s != d }
        .distinct()
        .map { case (s, d) => Edge(s, d, 0) })

    // Each vertex gathers the IDs of all canonical neighbours.
    val neighbourSets: VertexRDD[Set[VertexId]] =
      canonical.aggregateMessages[Set[VertexId]](
        ctx => {
          ctx.sendToSrc(Set(ctx.dstId))
          ctx.sendToDst(Set(ctx.srcId))
        },
        _ ++ _)

    val withSets = canonical.outerJoinVertices(neighbourSets) {
      (_, _, s) => s.getOrElse(Set.empty[VertexId])
    }

    // Each edge counts common neighbours of its endpoints and credits both.
    val counters: VertexRDD[Int] = withSets.aggregateMessages[Int](
      ctx => {
        val (small, large) =
          if (ctx.srcAttr.size <= ctx.dstAttr.size) (ctx.srcAttr, ctx.dstAttr)
          else (ctx.dstAttr, ctx.srcAttr)
        val common = small.count(large.contains)
        ctx.sendToSrc(common)
        ctx.sendToDst(common)
      },
      _ + _)

    // `counters` carry the canonical graph's vertex index. Re-indexing them on
    // the input graph's own index lets the join below zip partitions instead
    // of looking every vertex up; both vertex sets share one hash
    // partitioner, so this adds no shuffle.
    val reindexed = graph.vertices.aggregateUsingIndex[Int](counters, _ + _)

    // Each triangle at a vertex was counted once per incident triangle edge
    // pair — i.e. twice (once per adjacent triangle edge).
    graph.outerJoinVertices(reindexed) { (_, _, c) => c.getOrElse(0) / 2 }
  }

  /** Total number of distinct triangles in the graph. */
  def total[VD: ClassTag, ED: ClassTag](graph: Graph[VD, ED]): Long =
    run(graph).vertices.values.map(_.toLong).fold(0L)(_ + _) / 3
}
