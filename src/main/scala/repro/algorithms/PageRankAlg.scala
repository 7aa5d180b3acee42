package repro.algorithms

import org.apache.spark.graphx._
import scala.reflect.ClassTag

/** Static PageRank, implemented from scratch with the same semantics as
  * GraphX's `lib.PageRank.run` (which serves as the baseline in tests):
  * rank_i+1(v) = ResetProb + (1 - ResetProb) · Σ_{u→v} rank_i(u) / outDeg(u),
  * iterated a fixed number of supersteps, with GraphX's reset probability of 0.15.
  * This is the paper's "communication-bound, per-edge work" representative.
  */
object PageRankAlg {

  private val ResetProb = 0.15

  /** Ranks after `numIter` iterations; edge attributes hold 1/outDegree. */
  def run[VD: ClassTag, ED: ClassTag](graph: Graph[VD, ED], numIter: Int): Graph[Double, Double] = {
    require(numIter > 0, s"numIter must be positive, got $numIter")

    var rankGraph: Graph[Double, Double] = graph
      .outerJoinVertices(graph.outDegrees) { (_, _, deg) => deg.getOrElse(0) }
      .mapTriplets(e => 1.0 / e.srcAttr, TripletFields.Src)
      .mapVertices((_, _) => 1.0)

    var iteration = 0
    while (iteration < numIter) {
      rankGraph.cache()
      val rankUpdates = rankGraph.aggregateMessages[Double](
        ctx => ctx.sendToDst(ctx.srcAttr * ctx.attr),
        _ + _,
        TripletFields.Src)
      val prev = rankGraph
      // Vertices with no in-edges receive no message and settle at ResetProb.
      rankGraph = rankGraph.outerJoinVertices(rankUpdates) { (_, _, msgSum) =>
        ResetProb + (1.0 - ResetProb) * msgSum.getOrElse(0.0)
      }
      rankGraph.cache()
      rankGraph.edges.foreachPartition(_ => ()) // materialize before unpersisting parent
      prev.unpersistVertices(blocking = false)
      prev.edges.unpersist(blocking = false)
      iteration += 1
    }
    rankGraph
  }
}
