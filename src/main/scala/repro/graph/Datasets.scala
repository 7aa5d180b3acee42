package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The nine datasets of Table 1, as synthetic analogues at a configurable
  * scale divisor (`div = 100` → 1/100 of the paper's vertex/edge counts, used
  * for the metric tables; `REPRO_TIMED_DIV`, default 2000, for timed runs).
  *
  * Each [[Spec]] carries the paper's reported characterization (the "paper"
  * columns of EXPERIMENTS.md) plus the generator recipe that reproduces its
  * structural shape — see DESIGN.md § Substitutions for the mapping.
  */
object Datasets {

  /** How a dataset is synthesized. */
  sealed trait Kind

  /** Thinned 2-D lattice + fragment chains (RoadNet-*). */
  final case class Road(components: Long) extends Kind

  /** Fully symmetrized R-MAT (YouTube, Orkut). */
  case object SymSocial extends Kind

  /** R-MAT with a fraction of edges reciprocated (Pocek, socLiveJournal). */
  case object PartialSocial extends Kind

  /** Partially-symmetric R-MAT core + crawl-fringe leaves (follow-*). */
  case object Follow extends Kind

  /** One Table 1 row: paper-reported numbers + the synthesis recipe. */
  final case class Spec(
      name: String,
      kind: Kind,
      paperVertices: Long,
      paperEdges: Long,
      paperSymmPct: Double,
      paperZeroInPct: Double,
      paperZeroOutPct: Double,
      paperTriangles: Long,
      paperComponents: Long,
      paperDiameter: Option[Int],
      paperSizeBytes: Long,
      seed: Long)

  private val G = 1L << 30
  private val M = 1L << 20

  /** Table 1, ordered by vertex count as in the paper. */
  val all: Seq[Spec] = Seq(
    Spec("RoadNet-PA", Road(1052), 1088092L, 3083796L, 100.0, 0.0, 0.0,
      67150L, 1052L, None, (83.7 * M).toLong, seed = 101),
    Spec("YouTube", SymSocial, 1134890L, 2987624L, 100.0, 0.0, 0.0,
      3056386L, 1L, Some(20), (74.0 * M).toLong, seed = 102),
    Spec("RoadNet-TX", Road(1766), 1379917L, 3843320L, 100.0, 0.0, 0.0,
      82869L, 1766L, None, (56.5 * M).toLong, seed = 103),
    Spec("Pocek", PartialSocial, 1632803L, 30622564L, 54.34, 6.94, 12.25,
      32557458L, 1L, Some(11), 404L * M, seed = 104),
    Spec("RoadNet-CA", Road(1052), 1965206L, 5533214L, 100.0, 0.0, 0.0,
      120676L, 1052L, None, (83.7 * M).toLong, seed = 105),
    Spec("Orkut", SymSocial, 3072441L, 117185083L, 100.0, 0.0, 0.0,
      627584181L, 1L, Some(9), (3.3 * G).toLong, seed = 106),
    Spec("socLiveJournal", PartialSocial, 4847571L, 68993773L, 75.03, 7.39, 11.12,
      285730264L, 1876L, None, 1L * G, seed = 107),
    Spec("follow-jul", Follow, 17172142L, 136694421L, 37.57, 46.94, 25.65,
      4800000000L, 52L, None, (2.7 * G).toLong, seed = 108),
    Spec("follow-dec", Follow, 26339971L, 204912880L, 37.57, 55.05, 18.34,
      7600000000L, 47L, None, (4.1 * G).toLong, seed = 109),
  )

  /** Lookup by Table 1 name. */
  def byName(name: String): Spec =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown dataset '$name'; expected one of ${all.map(_.name).mkString(", ")}"))

  private def log2Ceil(x: Long): Int = {
    require(x > 0)
    64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, x - 1))
  }

  /** Synthesize the analogue edge list at 1/div of the paper's scale. */
  def edges(spark: SparkSession, spec: Spec, div: Int): DataFrame = {
    require(div >= 1, s"scale divisor must be >= 1, got $div")
    val targetV = math.max(64L, spec.paperVertices / div)
    val targetE = math.max(128L, spec.paperEdges / div)
    spec.kind match {
      case Road(paperComponents) =>
        val comps = math.max(1L, paperComponents / div).toInt
        val side  = math.max(8, math.sqrt((targetV - 3L * comps).toDouble).toInt)
        SynthGraphs.roadNet(spark, side, extraComponents = comps - 1, seed = spec.seed)

      case SymSocial =>
        // Symmetrization doubles edges (minus already-reciprocal duplicates).
        val scale = log2Ceil(targetV * 3 / 2)
        val sym = SynthGraphs.symmetrize(
          SynthGraphs.rmat(spark, scale, targetE / 2, seed = spec.seed))
        SynthGraphs.permuteIds(sym,
          SynthGraphs.evenBitsFor(1L << scale), seed = spec.seed + 7)

      case PartialSocial =>
        val f     = SynthGraphs.symmetryFraction(spec.paperSymmPct)
        val scale = log2Ceil(targetV)
        val part = SynthGraphs.partialSymmetrize(
          SynthGraphs.rmat(spark, scale, (targetE / (1 + f)).toLong, seed = spec.seed),
          f, seed = spec.seed + 1)
        SynthGraphs.permuteIds(part,
          SynthGraphs.evenBitsFor(1L << scale), seed = spec.seed + 7)

      case Follow =>
        val outDeg = 3
        val inDeg  = 2
        val nOut  = (targetV * spec.paperZeroInPct / 100.0).toLong
        val nIn   = (targetV * spec.paperZeroOutPct / 100.0).toLong
        // A couple of crawl superstars: single accounts owning percents of
        // the edge set, the cause of the paper's 1D/SC balance of 8.6-10 and
        // DC's 4.3-4.9 on the follow graphs.
        val stars = Seq(
          (1L, (targetE * 0.025).toLong, true),
          (2L, (targetE * 0.025).toLong, true),
          (3L, (targetE * 0.020).toLong, false),
          (5L, (targetE * 0.020).toLong, false))
        val starE = stars.map(_._2).sum
        val coreV = math.max(64L, targetV - nOut - nIn)
        val coreE = math.max(128L, targetE - nOut * outDeg - nIn * inDeg - starE)
        // The paper's Symm% counts fringe and superstar edges (never
        // reciprocated) in the denominator, so the core must be
        // proportionally more symmetric.
        val coreSymmPct = math.min(95.0,
          spec.paperSymmPct * targetE.toDouble / coreE.toDouble)
        val f     = SynthGraphs.symmetryFraction(coreSymmPct)
        val scale = log2Ceil(coreV)
        val core = SynthGraphs.partialSymmetrize(
          SynthGraphs.rmat(spark, scale, (coreE / (1 + f)).toLong,
            a = 0.62, b = 0.18, c = 0.15, seed = spec.seed),
          f, seed = spec.seed + 1)
        val withStars = SynthGraphs.addSuperstars(core,
          coreVertexSpace = 1L << scale, stars).distinct()
        val full = SynthGraphs.addFringe(withStars, coreVertexSpace = 1L << scale,
          numOutOnly = nOut, numInOnly = nIn, seed = spec.seed + 2,
          outDegree = outDeg, inDegree = inDeg)
        SynthGraphs.permuteIds(full,
          SynthGraphs.evenBitsFor((1L << scale) + nOut + nIn), seed = spec.seed + 7)
    }
  }
}
