package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Synthetic graph generators standing in for the paper's datasets (SNAP
  * graphs + the authors' proprietary Twitter crawl), which are unavailable
  * offline. Every generator returns a simple directed edge list
  * `DataFrame(src: Long, dst: Long)` — no self-loops, no duplicate edges —
  * that depends on its parameters and seed only: each random choice is one
  * [[uniform]] draw, whatever the core count or shuffle partitioning.
  *
  * The generators target the structural properties the paper's analysis keys
  * on: degree skew (RMAT), edge symmetry percentage (partial symmetrization),
  * zero-in/zero-out "crawl fringe" leaves, vertex-ID locality and component
  * fragmentation (grid road networks). See DESIGN.md § Substitutions.
  */
object SynthGraphs {

  private val Golden = 0x9E3779B97F4A7C15L

  /** The splitmix64 finaliser: a bijective 64-bit mix. */
  private def mix(x: Long): Long = {
    var z = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Counter-based draw in `[0, 1)`: a pure function of `(seed, key)` (Salmon et al., SC 2011). */
  def uniform(seed: Long, key: Long): Double =
    (mix(mix(seed) + key * Golden) >>> 11).toDouble / (1L << 53)

  /** R-MAT power-law graph over vertex IDs `[0, 2^scale)`.
    *
    * Each of `numEdges` candidate edges picks one quadrant per bit level, with
    * probabilities (a, b, c, d) for ((0,0), (0,1), (1,0), (1,1)), from the one
    * draw `uniform(seed · 1000003 + level, id)`; a-heavy parameterizations
    * concentrate degree on low IDs, giving the fat-tailed degrees of Figure 1.
    * Self-loops and duplicates are dropped, so fewer than `numEdges` remain.
    */
  def rmat(
      spark: SparkSession,
      scale: Int,
      numEdges: Long,
      a: Double = 0.57,
      b: Double = 0.19,
      c: Double = 0.19,
      seed: Long = 42): DataFrame = {
    require(scale > 0 && scale < 63, s"scale out of range: $scale")
    require(a + b + c < 1.0, "quadrant probabilities must sum below 1")
    import spark.implicits._
    spark.range(numEdges).map { id =>
      (0 until scale).foldLeft((0L, 0L)) { case ((src, dst), level) =>
        val u = uniform(seed * 1000003L + level, id)
        (if (u < a + b) src else src | 1L << level,
          if (u < a || (u >= a + b && u < a + b + c)) dst else dst | 1L << level)
      }
    }.toDF("src", "dst")
      .where(col("src") =!= col("dst"))
      .distinct()
  }

  /** Both directions of every edge present (an undirected graph stored as a
    * directed edge list, as GraphX loads SNAP's undirected graphs).
    */
  def symmetrize(edges: DataFrame): DataFrame =
    edges
      .union(edges.select(col("dst").as("src"), col("src").as("dst")))
      .distinct()

  /** Adds the reverse of a `fraction` of edges, yielding a graph where the
    * reciprocated share is about `2·fraction / (1 + fraction)` — the knob used
    * to hit the paper's Symm% column (Pocek 54 %, socLiveJournal 75 %,
    * follow 38 %). The draw is keyed on the edge, not on its row.
    */
  def partialSymmetrize(edges: DataFrame, fraction: Double, seed: Long): DataFrame = {
    require(fraction >= 0 && fraction <= 1, s"fraction out of range: $fraction")
    val reverse = udf((src: Long, dst: Long) => uniform(seed, (src << 32) ^ dst) < fraction)
    val reversed = edges
      .where(reverse(col("src"), col("dst")))
      .select(col("dst").as("src"), col("src").as("dst"))
    edges.union(reversed).distinct()
  }

  /** Fraction needed by [[partialSymmetrize]] to reach a target reciprocated
    * share `s`: solving s = 2f/(1+f) for f.
    */
  def symmetryFraction(targetSymmetryPct: Double): Double = {
    val s = targetSymmetryPct / 100.0
    s / (2.0 - s)
  }

  /** Appends forest-fire "crawl fringe" leaves, reproducing the high
    * ZeroIn%/ZeroOut% of the authors' Twitter crawl: `numOutOnly` fresh
    * vertices with `outDegree` out-edges each (zero in-degree — crawled users
    * who follow but are not followed) and `numInOnly` fresh vertices with
    * `inDegree` in-edges each (zero out-degree). Targets are drawn from the
    * low-ID (high-degree, for a-heavy RMAT) region via a cubed-uniform draw,
    * so fringe edges attach to hubs as a crawl would.
    *
    * Leaves carry multiple edges on purpose: a multi-edge leaf is kept local
    * (NonCut) only by partitioners that group by its own endpoint — 1D/SC for
    * out-leaves, DC for in-leaves — while hash partitioners cut it. This is
    * exactly the NonCut asymmetry the paper's Tables 2/3 show on the follow
    * graphs (RVC NonCut ≈ tens, 1D/SC NonCut ≈ millions).
    */
  def addFringe(
      edges: DataFrame,
      coreVertexSpace: Long,
      numOutOnly: Long,
      numInOnly: Long,
      seed: Long,
      outDegree: Int = 3,
      inDegree: Int = 2): DataFrame = {
    require(outDegree >= 1 && inDegree >= 1, "fringe degrees must be positive")
    val spark = edges.sparkSession
    def hub(seed: Long) =
      udf((id: Long) => (StrictMath.pow(uniform(seed, id), 3) * coreVertexSpace).toLong)
    val outFringe = spark.range(numOutOnly * outDegree).select(
      (col("id") / outDegree + coreVertexSpace).cast(LongType).as("src"),
      hub(seed + 1)(col("id")).as("dst"))
    val inFringe = spark.range(numInOnly * inDegree).select(
      hub(seed + 2)(col("id")).as("src"),
      (col("id") / inDegree + coreVertexSpace + numOutOnly).cast(LongType).as("dst"))
    edges.union(outFringe.distinct()).union(inFringe.distinct())
  }

  /** Deterministic bijective bit-mixing permutation on `[0, 2^bits)` — a
    * 3-round Feistel network whose round function is [[uniform]]'s finaliser.
    *
    * R-MAT correlates hub-ness with vertex-ID bit patterns (hubs are the
    * all-zero-quadrant IDs, i.e. multiples of large powers of two), which
    * modulo- and hash-based partitioners then map onto a single partition —
    * an artifact real datasets do not have (the paper's Twitter IDs are
    * hashed). Social generators apply this permutation as a final step;
    * road networks keep their natural grid-order IDs.
    */
  def permuteId(x: Long, bits: Int, seed: Long): Long = {
    require(bits >= 2 && bits % 2 == 0 && bits <= 62, s"bits must be even in [2,62]: $bits")
    require(x >= 0 && x < (1L << bits), s"id $x outside [0, 2^$bits)")
    val h    = bits / 2
    val mask = (1L << h) - 1
    var l    = (x >>> h) & mask
    var r    = x & mask
    for (round <- 0 until 3) {
      val nl = r
      r = (l ^ mix(r + seed + round * Golden)) & mask
      l = nl
    }
    (l << h) | r
  }

  /** Smallest even bit-width whose ID space covers `[0, n)`. */
  def evenBitsFor(n: Long): Int = {
    require(n > 0)
    val bits = 64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, n - 1))
    math.max(2, bits + (bits % 2))
  }

  /** Applies [[permuteId]] to both endpoints of every edge. A bijection on
    * IDs: degrees, symmetry, components — every structural property — are
    * preserved; only the ID↔structure correlation is destroyed.
    */
  def permuteIds(edges: DataFrame, bits: Int, seed: Long): DataFrame = {
    val f = udf((x: Long) => permuteId(x, bits, seed))
    edges.select(f(col("src")).as("src"), f(col("dst")).as("dst"))
  }

  /** Adds `superstars`: a few vertices with degree a sizeable fraction of the
    * whole edge set, as the paper's Twitter crawl has (its 1D/SC balance of
    * 8.6–10 at 128 partitions means single sources own multiple partitions'
    * worth of edges). Each `(starId, degree, outgoing)` entry adds `degree`
    * distinct edges from (or to, if `outgoing` is false) `starId`, targeting
    * core IDs via an odd-multiplier walk (bijective mod the core space, so
    * targets are distinct by construction).
    */
  def addSuperstars(
      edges: DataFrame,
      coreVertexSpace: Long,
      stars: Seq[(Long, Long, Boolean)]): DataFrame = {
    val spark = edges.sparkSession
    require(stars.forall(_._2 < coreVertexSpace), "star degree must fit the core space")
    stars.foldLeft(edges) { case (acc, (starId, degree, outgoing)) =>
      // Odd multiplier → i*A mod 2^k is injective; kept at 35 bits so the
      // product never overflows a Long under Spark's ANSI arithmetic.
      val peers = spark.range(degree).select(
        ((col("id") * 25214903917L + starId) % coreVertexSpace).as("peer"))
      val starEdges =
        if (outgoing) peers.select(lit(starId).as("src"), col("peer").as("dst"))
        else peers.select(col("peer").as("src"), lit(starId).as("dst"))
      acc.union(starEdges.where(col("src") =!= col("dst")))
    }
  }

  /** Symmetric 2-D lattice of `side × side` vertices at `idOffset`, thinned to
    * a `keepFraction` of lattice bonds (road networks average degree ~2.8, a
    * full lattice has 4) with a `diagFraction` of cells closed by a diagonal
    * chord. Vertex `(i, j)` has ID `offset + i·side + j`, so consecutive IDs
    * are road-neighbours — the ID locality that SC/DC exploit on the RoadNet
    * datasets. A thinned lattice is triangle-free; each surviving diagonal
    * `(i, j+1)–(i+1, j)` can close up to two triangles, matching the
    * low-but-nonzero triangle counts of Table 1.
    */
  def grid(
      spark: SparkSession,
      side: Int,
      idOffset: Long = 0L,
      keepFraction: Double = 1.0,
      diagFraction: Double = 0.0,
      seed: Long = 7): DataFrame = {
    require(side >= 2, s"grid side must be >= 2, got $side")
    val n     = side.toLong * side
    val cells = spark.range(n)
    def drawn(salt: Long, fraction: Double) =
      udf((id: Long) => uniform(seed + salt, id) < fraction).apply(col("id"))
    val right = cells
      .where(col("id") % side =!= (side - 1) && drawn(11, keepFraction))
      .select(col("id").as("src"), (col("id") + 1).as("dst"))
    val down = cells
      .where(col("id") < n - side && drawn(13, keepFraction))
      .select(col("id").as("src"), (col("id") + side).as("dst"))
    val diag = cells
      .where(col("id") % side =!= (side - 1) && col("id") < n - side &&
        drawn(17, diagFraction))
      .select((col("id") + 1).as("src"), (col("id") + side).as("dst"))
    symmetrize(right.union(down).union(diag))
      .select((col("src") + idOffset).as("src"), (col("dst") + idOffset).as("dst"))
  }

  /** Road-network analogue: one large (thinned) grid — the giant component
    * plus the small fragments that bond-thinning detaches — and
    * `extraComponents` disjoint 3-vertex chains, reproducing the SNAP road
    * networks' ~1000 components and infinite diameter.
    */
  def roadNet(
      spark: SparkSession,
      side: Int,
      extraComponents: Int,
      keepFraction: Double = 0.72,
      diagFraction: Double = 0.035,
      seed: Long = 7): DataFrame = {
    val main = grid(spark, side, idOffset = 0L, keepFraction = keepFraction,
      diagFraction = diagFraction, seed = seed)
    if (extraComponents <= 0) main
    else {
      val base = side.toLong * side
      val chainHeads = spark.range(extraComponents)
        .select((col("id") * 3 + base).as("h"))
      val chainEdges = chainHeads
        .select(col("h").as("src"), (col("h") + 1).as("dst"))
        .union(chainHeads.select((col("h") + 1).as("src"), (col("h") + 2).as("dst")))
      main.union(symmetrize(chainEdges))
    }
  }
}
