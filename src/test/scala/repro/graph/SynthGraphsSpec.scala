package repro.graph

import org.apache.spark.sql.DataFrame
import repro.SparkSpec

/** Generator tests: determinism, simple-graph hygiene, and the structural
  * targets each construct exists to hit.
  */
class SynthGraphsSpec extends SparkSpec {

  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  // --- RMAT ---

  private lazy val rmatSmall = SynthGraphs.rmat(spark, scale = 8, numEdges = 600, seed = 1).cache()

  test("rmat: deterministic in (params, seed)") {
    val again = SynthGraphs.rmat(spark, scale = 8, numEdges = 600, seed = 1)
    assert(pairs(rmatSmall) == pairs(again))
  }

  test("rmat: different seeds give different graphs") {
    val other = SynthGraphs.rmat(spark, scale = 8, numEdges = 600, seed = 2)
    assert(pairs(rmatSmall) != pairs(other))
  }

  test("rmat: no self-loops") {
    assert(pairs(rmatSmall).forall { case (s, d) => s != d })
  }

  test("rmat: no duplicate edges") {
    val df = SynthGraphs.rmat(spark, scale = 8, numEdges = 600, seed = 1)
    assert(df.count() == df.distinct().count())
  }

  test("rmat: vertex IDs stay inside [0, 2^scale)") {
    assert(pairs(rmatSmall).forall { case (s, d) =>
      s >= 0 && s < 256 && d >= 0 && d < 256
    })
  }

  test("rmat: realized edge count is close to (and at most) the requested count") {
    val n = rmatSmall.count()
    assert(n <= 600 && n > 400, s"got $n edges")
  }

  test("rmat: a-heavy parameters produce skewed out-degrees") {
    val degrees = pairs(rmatSmall).groupBy(_._1).map(_._2.size)
    val mean    = degrees.sum.toDouble / degrees.size
    assert(degrees.max > 4 * mean,
      s"expected a fat-tailed distribution, max=${degrees.max} mean=$mean")
  }

  test("rmat: with b == c, an edge points up or down the ID order equally often") {
    for (seed <- Seq(1L, 5L)) {
      val e  = pairs(SynthGraphs.rmat(spark, scale = 10, numEdges = 20000, seed = seed))
      val up = e.count { case (s, d) => s < d }.toDouble / e.size
      assert(up >= 0.45 && up <= 0.55, s"seed $seed: share of src < dst is $up")
    }
  }

  test("uniform: a pure draw in [0, 1) with mean near 1/2 per seed") {
    for (seed <- Seq(0L, 7L, -3L)) {
      val draws = (0L until 10000L).map(SynthGraphs.uniform(seed, _))
      assert(draws == (0L until 10000L).map(SynthGraphs.uniform(seed, _)))
      assert(draws.forall(u => u >= 0.0 && u < 1.0))
      assert(math.abs(draws.sum / draws.size - 0.5) < 0.02, s"seed $seed")
    }
    assert(SynthGraphs.uniform(1, 42) != SynthGraphs.uniform(2, 42))
  }

  test("rmat: rejects degenerate parameters") {
    assertThrows[IllegalArgumentException](SynthGraphs.rmat(spark, 0, 10))
    assertThrows[IllegalArgumentException](
      SynthGraphs.rmat(spark, 4, 10, a = 0.5, b = 0.3, c = 0.3))
  }

  // --- symmetrization ---

  test("symmetrize: every edge is reciprocated") {
    val sym = SynthGraphs.symmetrize(rmatSmall)
    val e   = pairs(sym)
    assert(e.forall { case (s, d) => e.contains((d, s)) })
  }

  test("symmetrize: at most doubles the edge count") {
    val sym = SynthGraphs.symmetrize(rmatSmall)
    assert(sym.count() <= 2 * rmatSmall.count())
    assert(sym.count() >= rmatSmall.count())
  }

  test("symmetrize: idempotent") {
    val once  = SynthGraphs.symmetrize(rmatSmall)
    val twice = SynthGraphs.symmetrize(once)
    assert(pairs(once) == pairs(twice))
  }

  test("partialSymmetrize(1.0) is full symmetrization") {
    val full = SynthGraphs.partialSymmetrize(rmatSmall, 1.0, seed = 3)
    assert(pairs(full) == pairs(SynthGraphs.symmetrize(rmatSmall)))
  }

  test("partialSymmetrize(0.0) keeps the edge set unchanged") {
    val none = SynthGraphs.partialSymmetrize(rmatSmall, 0.0, seed = 3)
    assert(pairs(none) == pairs(rmatSmall))
  }

  test("partialSymmetrize: reciprocated share lands near the target") {
    val base = SynthGraphs.rmat(spark, scale = 12, numEdges = 20000, seed = 5).cache()
    val f    = SynthGraphs.symmetryFraction(54.34) // Pocek's Symm%
    val part = SynthGraphs.partialSymmetrize(base, f, seed = 6)
    val measured = GraphOps.symmetryPct(part)
    assert(math.abs(measured - 54.34) < 8.0, s"measured $measured, wanted ~54.34")
    base.unpersist()
  }

  test("symmetryFraction: inverts s = 2f/(1+f)") {
    for (pct <- Seq(10.0, 37.57, 54.34, 75.03, 95.0)) {
      val f = SynthGraphs.symmetryFraction(pct)
      assert(math.abs(200.0 * f / (1 + f) - pct) < 1e-9)
    }
  }

  test("partialSymmetrize rejects fractions outside [0, 1]") {
    assertThrows[IllegalArgumentException](
      SynthGraphs.partialSymmetrize(rmatSmall, 1.5, seed = 1))
  }

  // --- crawl fringe ---

  test("addFringe: adds the requested number of zero-in and zero-out leaves") {
    val withFringe = SynthGraphs.addFringe(rmatSmall, coreVertexSpace = 256,
      numOutOnly = 40, numInOnly = 25, seed = 9).cache()
    val e = pairs(withFringe)
    val outOnly = e.map(_._1).filter(_ >= 256)
    val inOnly  = e.map(_._2).filter(_ >= 256)
    assert(outOnly.size == 40)
    assert(inOnly.size == 25)
    // Fringe vertices appear on exactly one side: zero in-degree resp. out-degree.
    assert(outOnly.forall(v => !e.exists(_._2 == v)))
    assert(inOnly.forall(v => !e.exists(_._1 == v)))
    withFringe.unpersist()
  }

  test("addFringe: leaves carry multiple edges (so hash partitioners cut them)") {
    val withFringe = SynthGraphs.addFringe(rmatSmall, coreVertexSpace = 256,
      numOutOnly = 50, numInOnly = 30, seed = 9, outDegree = 3, inDegree = 2)
    val e = pairs(withFringe)
    val outDegrees = e.filter(_._1 >= 256).groupBy(_._1).map(_._2.size)
    val inDegrees  = e.filter(_._2 >= 256).groupBy(_._2).map(_._2.size)
    assert(outDegrees.forall(_ <= 3) && outDegrees.sum > 2 * 50,
      "out-leaves have ~3 edges each (minus duplicate draws)")
    assert(inDegrees.forall(_ <= 2) && inDegrees.sum > 30,
      "in-leaves have ~2 edges each")
  }

  test("addFringe: fringe edges attach to the low-ID (hub) region") {
    val withFringe = SynthGraphs.addFringe(rmatSmall, coreVertexSpace = 256,
      numOutOnly = 200, numInOnly = 0, seed = 10)
    val targets = pairs(withFringe).filter(_._1 >= 256).map(_._2)
    assert(targets.forall(_ < 256))
    val lowHalf = targets.count(_ < 128)
    assert(lowHalf > targets.size / 2, "cubed-uniform draw should favour low IDs")
  }

  test("addFringe rejects non-positive fringe degrees") {
    assertThrows[IllegalArgumentException](
      SynthGraphs.addFringe(rmatSmall, 256, 1, 1, seed = 1, outDegree = 0))
  }

  // --- ID permutation and superstars ---

  test("permuteId: bijective on the whole domain") {
    for (bits <- Seq(4, 10, 12)) {
      val images = (0L until (1L << bits)).map(SynthGraphs.permuteId(_, bits, seed = 5))
      assert(images.toSet.size == (1 << bits), s"bits=$bits")
      assert(images.forall(x => x >= 0 && x < (1L << bits)), s"bits=$bits range")
    }
  }

  test("permuteId: deterministic in (x, bits, seed), varies with seed") {
    val a = (0L until 256L).map(SynthGraphs.permuteId(_, 8, seed = 1))
    val b = (0L until 256L).map(SynthGraphs.permuteId(_, 8, seed = 1))
    val c = (0L until 256L).map(SynthGraphs.permuteId(_, 8, seed = 2))
    assert(a == b)
    assert(a != c)
  }

  test("permuteId: breaks the power-of-two residue structure of RMAT hubs") {
    // RMAT hubs sit at multiples of large powers of two; after permutation
    // they must not share a residue class mod a power-of-two partition count.
    val hubs     = (0 until 16).map(i => i.toLong << 8) // 0, 256, 512, ...
    val residues = hubs.map(h => SynthGraphs.permuteId(h, 12, seed = 3) % 16).toSet
    assert(residues.size > 4, s"hub residues collapsed: $residues")
  }

  test("permuteId rejects odd widths and out-of-range ids") {
    assertThrows[IllegalArgumentException](SynthGraphs.permuteId(1, 7, 0))
    assertThrows[IllegalArgumentException](SynthGraphs.permuteId(1 << 8, 8, 0))
  }

  test("evenBitsFor covers the requested space with an even width") {
    assert(SynthGraphs.evenBitsFor(256) == 8)
    assert(SynthGraphs.evenBitsFor(257) == 10)
    assert(SynthGraphs.evenBitsFor(1) == 2)
    for (n <- Seq(3L, 100L, 5000L, 1L << 20)) {
      val bits = SynthGraphs.evenBitsFor(n)
      assert(bits % 2 == 0 && (1L << bits) >= n, s"n=$n bits=$bits")
    }
  }

  test("permuteIds preserves every structural property") {
    val permuted = SynthGraphs.permuteIds(rmatSmall, 8, seed = 6)
    assert(permuted.count() == rmatSmall.count())
    def degreeMultiset(df: DataFrame) =
      pairs(df).groupBy(_._1).map(_._2.size).toSeq.sorted
    assert(degreeMultiset(permuted) == degreeMultiset(rmatSmall))
    assert(GraphOps.symmetryPct(permuted) == GraphOps.symmetryPct(rmatSmall))
  }

  test("addSuperstars: adds the requested distinct high-degree edges") {
    val withStars = SynthGraphs.addSuperstars(rmatSmall, coreVertexSpace = 256,
      stars = Seq((1L, 100L, true), (3L, 80L, false)))
    val e = pairs(withStars)
    // one peer of each walk is the star itself and gets the self-loop filter
    assert(e.count(_._1 == 1L) >= 99, "out-star degree")
    assert(e.count(_._2 == 3L) >= 79, "in-star degree")
    assert(e.forall { case (s, d) => s != d })
  }

  test("addSuperstars rejects degrees exceeding the core space") {
    assertThrows[IllegalArgumentException](
      SynthGraphs.addSuperstars(rmatSmall, 256, Seq((1L, 300L, true))))
  }

  // --- grids and road networks ---

  test("grid: full 3x3 lattice has 9 vertices and 24 directed edges") {
    val g = SynthGraphs.grid(spark, side = 3, keepFraction = 1.0)
    val e = pairs(g)
    assert(GraphOps.degrees(g).count() == 9)
    assert(e.size == 24) // 2*(3*2)*2 lattice bonds, both directions
  }

  test("grid: symmetric by construction") {
    val g = SynthGraphs.grid(spark, side = 6, keepFraction = 0.8, seed = 4)
    val e = pairs(g)
    assert(e.forall { case (s, d) => e.contains((d, s)) })
  }

  test("grid: edges connect lattice neighbours only (IDs differ by 1, side, or side-1)") {
    val side = 7
    val g    = SynthGraphs.grid(spark, side, keepFraction = 1.0, diagFraction = 0.3, seed = 4)
    assert(pairs(g).forall { case (s, d) =>
      val diff = math.abs(s - d)
      diff == 1 || diff == side || diff == side - 1
    })
  }

  test("grid: a full lattice without diagonals has no triangles") {
    val g = SynthGraphs.grid(spark, side = 5, keepFraction = 1.0, diagFraction = 0.0)
    assert(repro.Reference.triangles(pairs(g).toSeq) == 0)
  }

  test("grid: diagonals create triangles") {
    val g = SynthGraphs.grid(spark, side = 5, keepFraction = 1.0, diagFraction = 1.0)
    assert(repro.Reference.triangles(pairs(g).toSeq) == 32) // 2 per inner cell, 16 cells
  }

  test("grid: idOffset shifts every vertex") {
    val g = SynthGraphs.grid(spark, side = 3, idOffset = 100, keepFraction = 1.0)
    assert(pairs(g).forall { case (s, d) => s >= 100 && d >= 100 })
  }

  test("grid rejects side < 2") {
    assertThrows[IllegalArgumentException](SynthGraphs.grid(spark, side = 1))
  }

  test("roadNet: extra components appear as disjoint 3-vertex chains") {
    val g     = SynthGraphs.roadNet(spark, side = 4, extraComponents = 5,
      keepFraction = 1.0, diagFraction = 0.0)
    val comps = repro.Reference.components(pairs(g).toSeq).values.toSet
    assert(comps.size == 6) // the grid + 5 chains
  }

  test("roadNet: deterministic") {
    val a = SynthGraphs.roadNet(spark, side = 10, extraComponents = 3, seed = 11)
    val b = SynthGraphs.roadNet(spark, side = 10, extraComponents = 3, seed = 11)
    assert(pairs(a) == pairs(b))
  }

  test("roadNet: default thinning keeps mean degree near road-network levels") {
    val g      = SynthGraphs.roadNet(spark, side = 60, extraComponents = 0, seed = 12)
    val v      = GraphOps.degrees(g).count()
    val meanDeg = g.count().toDouble / v
    assert(meanDeg > 2.0 && meanDeg < 3.6, s"directed mean degree $meanDeg")
  }
}
