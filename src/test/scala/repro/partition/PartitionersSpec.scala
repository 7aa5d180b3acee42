package repro.partition

import org.apache.spark.graphx.{PartitionStrategy => GxStrategy}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Pure unit/property tests of the six strategies — no Spark session needed. */
class PartitionersSpec extends AnyFunSuite {

  private val partCounts = Seq(1, 2, 3, 4, 7, 16, 17, 64, 100, 128, 256)

  private def randomIds(seed: Long, n: Int): Seq[(Long, Long)] = {
    val rng = new Random(seed)
    Seq.fill(n)((rng.nextLong(1L << 40), rng.nextLong(1L << 40)))
  }

  for (s <- Partitioners.all) {
    test(s"${s.name}: pid is always within [0, numParts)") {
      for {
        n          <- partCounts
        (src, dst) <- randomIds(seed = 1, n = 500)
      } {
        val p = s.pid(src, dst, n)
        assert(p >= 0 && p < n, s"pid $p out of range for ($src, $dst, $n)")
      }
    }

    test(s"${s.name}: pid is deterministic") {
      for ((src, dst) <- randomIds(seed = 2, n = 200)) {
        assert(s.pid(src, dst, 128) == s.pid(src, dst, 128))
      }
    }

    test(s"${s.name}: numParts = 1 maps everything to partition 0") {
      for ((src, dst) <- randomIds(seed = 3, n = 100)) {
        assert(s.pid(src, dst, 1) == 0)
      }
    }

    test(s"${s.name}: GraphX PartitionStrategy adapter delegates to pid") {
      for ((src, dst) <- randomIds(seed = 4, n = 100)) {
        assert(s.getPartition(src, dst, 64) == s.pid(src, dst, 64))
      }
    }
  }

  test("RVC matches GraphX RandomVertexCut bit-for-bit") {
    for {
      n          <- partCounts
      (src, dst) <- randomIds(seed = 5, n = 300)
    } assert(Partitioners.RVC.pid(src, dst, n) ==
      GxStrategy.RandomVertexCut.getPartition(src, dst, n))
  }

  test("1D matches GraphX EdgePartition1D bit-for-bit") {
    for {
      n          <- partCounts
      (src, dst) <- randomIds(seed = 6, n = 300)
    } assert(Partitioners.OneD.pid(src, dst, n) ==
      GxStrategy.EdgePartition1D.getPartition(src, dst, n))
  }

  test("2D matches GraphX EdgePartition2D bit-for-bit (squares and non-squares)") {
    for {
      n          <- partCounts
      (src, dst) <- randomIds(seed = 7, n = 300)
    } assert(Partitioners.TwoD.pid(src, dst, n) ==
      GxStrategy.EdgePartition2D.getPartition(src, dst, n))
  }

  test("CRVC matches GraphX CanonicalRandomVertexCut bit-for-bit") {
    for {
      n          <- partCounts
      (src, dst) <- randomIds(seed = 8, n = 300)
    } assert(Partitioners.CRVC.pid(src, dst, n) ==
      GxStrategy.CanonicalRandomVertexCut.getPartition(src, dst, n))
  }

  test("CRVC is direction-canonical: pid(u,v) == pid(v,u)") {
    for ((u, v) <- randomIds(seed = 9, n = 500); n <- Seq(2, 16, 128)) {
      assert(Partitioners.CRVC.pid(u, v, n) == Partitioners.CRVC.pid(v, u, n))
    }
  }

  test("RVC separates some edge directions (unlike CRVC)") {
    val diverging = randomIds(seed = 10, n = 500).count { case (u, v) =>
      Partitioners.RVC.pid(u, v, 128) != Partitioners.RVC.pid(v, u, 128)
    }
    assert(diverging > 400, s"expected most reversed pairs to diverge, got $diverging/500")
  }

  test("1D ignores the destination vertex") {
    val rng = new Random(11)
    for (_ <- 0 until 300) {
      val src = rng.nextLong(1L << 40)
      val p1  = Partitioners.OneD.pid(src, rng.nextLong(1L << 40), 64)
      val p2  = Partitioners.OneD.pid(src, rng.nextLong(1L << 40), 64)
      assert(p1 == p2)
    }
  }

  test("SC is source modulo; DC is destination modulo") {
    for ((src, dst) <- randomIds(seed = 12, n = 300); n <- Seq(2, 7, 128)) {
      assert(Partitioners.SC.pid(src, dst, n) == (src % n).toInt)
      assert(Partitioners.DC.pid(src, dst, n) == (dst % n).toInt)
    }
  }

  test("SC preserves ID locality: consecutive sources cycle through partitions") {
    val pids = (0L until 256L).map(i => Partitioners.SC.pid(i, 999, 128))
    assert(pids == (0 until 128) ++ (0 until 128))
  }

  // MixingPrime is odd, so for n = 2^k the low k bits of src * MixingPrime
  // depend only on src mod n; below 8192, src * MixingPrime stays under 2^63,
  // so `abs` never flips its sign. 1D is then SC with its partitions
  // relabelled, which is why the triangle sweep times 1D and SC on identical
  // CommCost, Cut and Balance.
  test("1D is SC relabelled for power-of-two partition counts and sources below 8192") {
    assert(8191L * Partitioners.MixingPrime > 0L)
    for (n <- Seq(8, 16, 128, 256)) {
      val pairs = (0L until 8192L).map(src =>
        Partitioners.SC.pid(src, 0L, n) -> Partitioners.OneD.pid(src, 0L, n)).distinct
      assert(pairs.map(_._1).distinct.size == pairs.size, s"SC -> 1D is not a function at n=$n")
      assert(pairs.map(_._1).sorted == (0 until n), s"SC pids do not cover [0, $n)")
      assert(pairs.map(_._2).sorted == (0 until n), s"1D pids are not a permutation of [0, $n)")
    }
  }

  for (n <- Seq(4, 16, 64, 256)) {
    test(s"2D replication bound: a vertex touches at most 2*sqrt($n) partitions") {
      val bound = 2 * math.ceil(math.sqrt(n)).toInt
      val rng   = new Random(13)
      for (_ <- 0 until 50) {
        val v = rng.nextLong(1L << 40)
        val partners = Seq.fill(500)(rng.nextLong(1L << 40))
        val touched = (partners.map(x => Partitioners.TwoD.pid(v, x, n)) ++
          partners.map(x => Partitioners.TwoD.pid(x, v, n))).toSet
        assert(touched.size <= bound,
          s"vertex $v touched ${touched.size} > $bound partitions at n=$n")
      }
    }
  }

  test("all lists the six strategies in paper order") {
    assert(Partitioners.all.map(_.name) == Seq("RVC", "1D", "2D", "CRVC", "SC", "DC"))
  }

  test("strategies are serializable (required for GraphX shipping)") {
    val out = new java.io.ObjectOutputStream(new java.io.ByteArrayOutputStream())
    Partitioners.all.foreach(out.writeObject)
  }
}
