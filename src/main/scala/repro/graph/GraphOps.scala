package repro.graph

import org.apache.spark.graphx.{Graph, VertexId}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.algorithms.{ConnectedComponentsAlg, GraphBuilder, ShortestPathsAlg, TriangleCountAlg}
import repro.partition.Partitioners

/** Everything Table 1 reports about a graph. `diameter = None` renders as ∞
  * (the paper's convention for multi-component graphs).
  */
final case class GraphProfile(
    name: String,
    vertices: Long,
    edges: Long,
    symmPct: Double,
    zeroInPct: Double,
    zeroOutPct: Double,
    triangles: Long,
    components: Long,
    diameter: Option[Int],
    sizeBytes: Long) {

  def diameterStr: String = diameter.map(_.toString).getOrElse("inf")

  def tableRow: String =
    f"$name%-14s $vertices%9d $edges%10d $symmPct%6.2f $zeroInPct%7.2f $zeroOutPct%8.2f " +
      f"$triangles%12d $components%10d ${diameterStr}%8s $sizeBytes%12d"
}

/** Dataset characterization over the DataFrame edge-list representation; the
  * structural measures (triangles, components, diameter) reuse the from-
  * scratch GraphX algorithms so Table 1 exercises the same code the timed
  * sweeps do.
  */
object GraphOps {

  /** Percentage of edges whose reverse edge is also present. Undirected
    * graphs stored as both directions measure 100 by construction.
    */
  def symmetryPct(edges: DataFrame): Double = {
    val total = edges.count()
    if (total == 0) 100.0
    else {
      val reciprocated = edges
        .intersect(edges.select(col("dst").as("src"), col("src").as("dst")))
        .count()
      100.0 * reciprocated / total
    }
  }

  /** In/out-degree per vertex (vertices missing a direction get 0) — the raw
    * data behind the paper's Figures 1 and 2, and Table 1's vertex count,
    * ZeroIn% and ZeroOut%.
    */
  def degrees(edges: DataFrame): DataFrame = {
    val out = edges.groupBy(col("src").as("v")).agg(count(lit(1)).as("outDeg"))
    val in  = edges.groupBy(col("dst").as("v")).agg(count(lit(1)).as("inDeg"))
    out.join(in, Seq("v"), "full_outer")
      .select(col("v"),
        coalesce(col("inDeg"), lit(0L)).as("inDeg"),
        coalesce(col("outDeg"), lit(0L)).as("outDeg"))
  }

  /** Bytes of the graph as a tab-separated edge-list text file — the "Size"
    * column of Table 1 without writing anything to disk.
    */
  def sizeOnDiskBytes(edges: DataFrame): Long =
    edges
      .select(
        (length(col("src").cast("string")) + length(col("dst").cast("string")) + 2)
          .as("line"))
      .agg(coalesce(sum(col("line")), lit(0L)))
      .head()
      .getLong(0)

  /** Pseudo-diameter by double BFS sweep on the *undirected* view of a graph
    * known to have a single component: hop eccentricity of the vertex
    * farthest from an arbitrary start. Exact on trees, a tight lower bound in
    * general — adequate for the "short vs infinite" distinction Table 1 draws.
    */
  private def doubleSweep(graph: Graph[Int, Int]): Int = {
    val und = Graph.fromEdges(
      graph.edges.flatMap(e =>
        Iterator(org.apache.spark.graphx.Edge(e.srcId, e.dstId, 1),
          org.apache.spark.graphx.Edge(e.dstId, e.srcId, 1))),
      defaultValue = 1)
    def farthest(from: VertexId): (VertexId, Int) =
      ShortestPathsAlg.run(und, Seq(from))
        .vertices
        .map { case (vid, m) => (vid, m.getOrElse(from, 0)) }
        .reduce((a, b) => if (a._2 >= b._2) a else b)
    val start       = graph.vertices.map(_._1).first()
    val (far, _)    = farthest(start)
    val (_, radius) = farthest(far)
    radius
  }

  /** Full Table 1 characterization of one edge list. The GraphX-side measures
    * run on an RVC-partitioned graph (partitioner choice cannot change the
    * results — asserted in tests). The diameter is `None` (the paper's ∞)
    * when the graph has more than one component or `includeDiameter` is off.
    */
  def profile(name: String, edges: DataFrame, numParts: Int = 16,
      includeDiameter: Boolean = true): GraphProfile = {
    val cached = edges.cache()
    try {
      val graph = GraphBuilder.partitioned(cached, Partitioners.RVC, numParts).cache()
      val counts = degrees(cached)
        .agg(count(lit(1)), count(when(col("inDeg") === 0, 1)), count(when(col("outDeg") === 0, 1)))
        .head()
      val vertices = counts.getLong(0)
      def pct(n: Long) = if (vertices == 0) 0.0 else 100.0 * n / vertices
      val components = ConnectedComponentsAlg.count(graph)
      val p = GraphProfile(
        name = name,
        vertices = vertices,
        edges = cached.count(),
        symmPct = symmetryPct(cached),
        zeroInPct = pct(counts.getLong(1)),
        zeroOutPct = pct(counts.getLong(2)),
        triangles = TriangleCountAlg.total(graph),
        components = components,
        diameter = if (includeDiameter && components == 1L) Some(doubleSweep(graph)) else None,
        sizeBytes = sizeOnDiskBytes(cached))
      // Blocking, like the unpersist below: an asynchronous removal can race
      // the ContextCleaner's removal of the same blocks, which logs "Asked to
      // remove block …, which does not exist". Neither call is timed.
      graph.unpersist(blocking = true)
      p
    } finally cached.unpersist(blocking = true)
  }
}
