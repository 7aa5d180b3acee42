package repro

import repro.graph.Datasets
import repro.graph.SynthGraphs.{evenBitsFor, permuteId, symmetryFraction, uniform}

/** Driver-side copy of every generator and of the `Datasets` recipes, on plain
  * Scala collections and without Spark. It rebuilds a dataset's edge set from
  * `SynthGraphs.uniform` and `SynthGraphs.permuteId` alone, so it has no core
  * count or shuffle partitioning to depend on: `Datasets.edges` must give the
  * same set. Only run at heavy scale divisors (small graphs).
  */
object SynthReference {

  type Edges = Set[(Long, Long)]

  def rmat(scale: Int, numEdges: Long, a: Double, b: Double, c: Double, seed: Long): Edges =
    (0L until numEdges).map { id =>
      val bits = (0 until scale).map { level =>
        val u = uniform(seed * 1000003L + level, id)
        val (s, d) =
          if (u < a) (0L, 0L) else if (u < a + b) (0L, 1L) else if (u < a + b + c) (1L, 0L)
          else (1L, 1L)
        (s << level, d << level)
      }
      (bits.map(_._1).sum, bits.map(_._2).sum)
    }.filter { case (s, d) => s != d }.toSet

  def symmetrize(edges: Edges): Edges = edges ++ edges.map(_.swap)

  def partialSymmetrize(edges: Edges, fraction: Double, seed: Long): Edges =
    edges ++ edges.filter { case (s, d) => uniform(seed, (s << 32) ^ d) < fraction }.map(_.swap)

  def addFringe(edges: Edges, space: Long, numOutOnly: Long, numInOnly: Long, seed: Long,
      outDegree: Int, inDegree: Int): Edges = {
    def hub(seed: Long, id: Long): Long = (StrictMath.pow(uniform(seed, id), 3) * space).toLong
    edges ++
      (0L until numOutOnly * outDegree).map(id => (id / outDegree + space, hub(seed + 1, id))) ++
      (0L until numInOnly * inDegree).map(id =>
        (hub(seed + 2, id), id / inDegree + space + numOutOnly))
  }

  def addSuperstars(edges: Edges, space: Long, stars: Seq[(Long, Long, Boolean)]): Edges =
    edges ++ stars.flatMap { case (star, degree, outgoing) =>
      (0L until degree).map { i =>
        val peer = (i * 25214903917L + star) % space
        if (outgoing) (star, peer) else (peer, star)
      }
    }.filter { case (s, d) => s != d }

  def permuteIds(edges: Edges, bits: Int, seed: Long): Edges =
    edges.map { case (s, d) => (permuteId(s, bits, seed), permuteId(d, bits, seed)) }

  def roadNet(side: Int, extraComponents: Int, seed: Long,
      keepFraction: Double = 0.72, diagFraction: Double = 0.035): Edges = {
    val n = side.toLong * side
    val grid = (0L until n).flatMap { id =>
      val notLastCol = id % side != side - 1
      val notLastRow = id < n - side
      Seq(
        (notLastCol && uniform(seed + 11, id) < keepFraction) -> (id, id + 1),
        (notLastRow && uniform(seed + 13, id) < keepFraction) -> (id, id + side),
        (notLastCol && notLastRow && uniform(seed + 17, id) < diagFraction) -> (id + 1, id + side),
      ).collect { case (true, e) => e }
    }
    val chains = (0L until math.max(0, extraComponents)).flatMap { i =>
      val h = n + 3 * i
      Seq((h, h + 1), (h + 1, h + 2))
    }
    symmetrize((grid ++ chains).toSet)
  }

  private def log2Ceil(x: Long): Int =
    64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, x - 1))

  /** The recipe of `Datasets.edges`, step for step. */
  def edges(spec: Datasets.Spec, div: Int): Edges = {
    val targetV = math.max(64L, spec.paperVertices / div)
    val targetE = math.max(128L, spec.paperEdges / div)
    spec.kind match {
      case Datasets.Road(paperComponents) =>
        val comps = math.max(1L, paperComponents / div).toInt
        val side  = math.max(8, math.sqrt((targetV - 3L * comps).toDouble).toInt)
        roadNet(side, comps - 1, spec.seed)

      case Datasets.SymSocial =>
        val scale = log2Ceil(targetV * 3 / 2)
        val sym = symmetrize(rmat(scale, targetE / 2, 0.57, 0.19, 0.19, spec.seed))
        permuteIds(sym, evenBitsFor(1L << scale), spec.seed + 7)

      case Datasets.PartialSocial =>
        val f     = symmetryFraction(spec.paperSymmPct)
        val scale = log2Ceil(targetV)
        val part = partialSymmetrize(
          rmat(scale, (targetE / (1 + f)).toLong, 0.57, 0.19, 0.19, spec.seed), f, spec.seed + 1)
        permuteIds(part, evenBitsFor(1L << scale), spec.seed + 7)

      case Datasets.Follow =>
        val (outDeg, inDeg) = (3, 2)
        val nOut  = (targetV * spec.paperZeroInPct / 100.0).toLong
        val nIn   = (targetV * spec.paperZeroOutPct / 100.0).toLong
        val stars = Seq(
          (1L, (targetE * 0.025).toLong, true),
          (2L, (targetE * 0.025).toLong, true),
          (3L, (targetE * 0.020).toLong, false),
          (5L, (targetE * 0.020).toLong, false))
        val coreV = math.max(64L, targetV - nOut - nIn)
        val coreE = math.max(128L, targetE - nOut * outDeg - nIn * inDeg - stars.map(_._2).sum)
        val coreSymmPct = math.min(95.0, spec.paperSymmPct * targetE.toDouble / coreE.toDouble)
        val f     = symmetryFraction(coreSymmPct)
        val scale = log2Ceil(coreV)
        val core = partialSymmetrize(
          rmat(scale, (coreE / (1 + f)).toLong, 0.62, 0.18, 0.15, spec.seed), f, spec.seed + 1)
        val full = addFringe(addSuperstars(core, 1L << scale, stars), 1L << scale,
          nOut, nIn, spec.seed + 2, outDeg, inDeg)
        permuteIds(full, evenBitsFor((1L << scale) + nOut + nIn), spec.seed + 7)
    }
  }
}
