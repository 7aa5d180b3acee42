package repro.algorithms

import java.util.Arrays
import org.apache.spark.graphx._
import scala.reflect.ClassTag

/** Triangle counting from scratch, with the same semantics as GraphX's
  * `lib.TriangleCount` baseline: edges are read as an undirected simple graph
  * (self-loops dropped, each vertex pair counted once whatever the number and
  * direction of its edges), every vertex gathers its neighbour set, and each
  * undirected edge contributes the size of its endpoints' set intersection.
  * Per-vertex counts halve the edge sums; the global count divides by 3 (each
  * triangle is seen at its three corners).
  *
  * The count runs on the input graph's own edge partitions: there is no
  * canonical rebuild, so the strategy under test shapes every shuffle of the
  * count. Precondition: every copy of a directed edge `(src, dst)` sits in one
  * edge partition. `Graph.partitionBy` guarantees it, since every strategy is
  * a function of `(src, dst)`, and so does [[GraphBuilder.partitioned]] (the
  * same precondition as `graphx.lib.TriangleCount.runPreCanonicalized`'s
  * canonical edges). The count then takes two `aggregateMessages` supersteps:
  *   1. Duplicate copies are merged within each partition, and every
  *      non-loop edge sends each endpoint the other's ID. A vertex sorts what
  *      it receives into distinct neighbour IDs; an ID received twice marks a
  *      reciprocated pair (edges in both directions).
  *   2. Each undirected pair is counted by one of its edges: `(s, d)` when
  *      `s < d`, and `(s, d)` with `s > d` only when `(d, s)` is absent. That
  *      edge credits both endpoints with the sorted-merge intersection of
  *      their neighbour lists.
  *
  * This is the paper's "vertex-state-heavy" representative: the neighbour
  * lists are per-vertex state proportional to degree, shipped to every edge
  * partition that holds a replica of the vertex, which is why the Cut metric,
  * not CommCost, predicts its runtime.
  */
object TriangleCountAlg {

  /** A vertex's neighbours as sorted, distinct IDs, with bit `k` of
    * `reciprocatedBits` set when the vertex has edges both to and from
    * `ids(k)`.
    */
  private final class Neighbours(val ids: Array[Long], val reciprocatedBits: Array[Long])
      extends Serializable {

    /** Whether edges run both ways between this vertex and `id`. */
    def reciprocated(id: Long): Boolean = {
      val k = Arrays.binarySearch(ids, id)
      k >= 0 && (reciprocatedBits(k >>> 6) & (1L << (k & 63))) != 0
    }
  }

  private val noNeighbours = new Neighbours(Array.emptyLongArray, Array.emptyLongArray)

  /** Neighbours from the IDs a vertex received: each neighbour once per
    * direction of its edges with the vertex.
    */
  private def neighbours(received: Array[Long]): Neighbours = {
    val sorted = received.clone()
    Arrays.sort(sorted)
    val ids  = new Array[Long](sorted.length)
    val bits = new Array[Long]((sorted.length + 63) / 64)
    var i = 0
    var n = 0
    while (i < sorted.length) {
      ids(n) = sorted(i)
      if (i + 1 < sorted.length && sorted(i + 1) == sorted(i)) {
        bits(n >>> 6) |= 1L << (n & 63)
        i += 2
      } else i += 1
      n += 1
    }
    new Neighbours(Arrays.copyOf(ids, n), Arrays.copyOf(bits, (n + 63) / 64))
  }

  /** Size of the intersection of two sorted, distinct ID arrays, by a merge. */
  private def commonCount(a: Array[Long], b: Array[Long]): Int = {
    var count = 0
    var i = 0
    var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { count += 1; i += 1; j += 1 }
    }
    count
  }

  /** The graph the count runs on: the input's edge partitions with duplicate
    * copies of each directed edge merged in place, without a shuffle.
    */
  private[algorithms] def deduplicated[VD: ClassTag, ED: ClassTag](
      graph: Graph[VD, ED]): Graph[VD, ED] =
    graph.groupEdges((a, _) => a)

  /** Per-vertex triangle counts; see the precondition above. */
  def run[VD: ClassTag, ED: ClassTag](graph: Graph[VD, ED]): Graph[Int, ED] = {
    val simple = deduplicated(graph)

    val received: VertexRDD[Array[Long]] = simple.aggregateMessages[Array[Long]](
      ctx =>
        if (ctx.srcId != ctx.dstId) {
          ctx.sendToSrc(Array(ctx.dstId))
          ctx.sendToDst(Array(ctx.srcId))
        },
      _ ++ _,
      TripletFields.None)

    val withNeighbours = simple.outerJoinVertices(received) {
      (_, _, ids) => ids.fold(noNeighbours)(neighbours)
    }

    val counters: VertexRDD[Int] = withNeighbours.aggregateMessages[Int](
      ctx => {
        val s = ctx.srcId
        val d = ctx.dstId
        if (s < d || (s > d && !ctx.srcAttr.reciprocated(d))) {
          val common = commonCount(ctx.srcAttr.ids, ctx.dstAttr.ids)
          if (common > 0) {
            ctx.sendToSrc(common)
            ctx.sendToDst(common)
          }
        }
      },
      _ + _)

    // `counters` carry `graph.vertices`' own index (neither superstep changes
    // it), so this join zips partitions. Each triangle at a vertex was
    // credited by both of its edges at that vertex.
    graph.outerJoinVertices(counters) { (_, _, c) => c.getOrElse(0) / 2 }
  }

  /** Total number of distinct triangles in the graph. */
  def total[VD: ClassTag, ED: ClassTag](graph: Graph[VD, ED]): Long =
    run(graph).vertices.values.map(_.toLong).fold(0L)(_ + _) / 3
}
