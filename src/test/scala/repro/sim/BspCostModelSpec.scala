package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.partition.PartitionMetrics

/** Cost-model tests: monotonicity in every resource and the paper's
  * infrastructure-experiment shape.
  */
class BspCostModelSpec extends AnyFunSuite {

  private def metrics(commCost: Long = 1000000L, cut: Long = 400000L,
      balance: Double = 1.2, edges: Long = 2000000L, parts: Int = 256): PartitionMetrics =
    PartitionMetrics("follow-dec", "2D", parts, edges, 300000L, balance,
      1000L, cut, commCost, 0.0)

  private val bytes = 40L * (1 << 20)

  test("faster network strictly reduces estimated time") {
    val slow = BspCostModel.estimateSeconds(metrics(), bytes, 10, Infra.ConfigII)
    val fast = BspCostModel.estimateSeconds(metrics(), bytes, 10, Infra.ConfigIII)
    assert(fast < slow)
  }

  test("faster storage strictly reduces estimated time") {
    val hdd = BspCostModel.estimateSeconds(metrics(), bytes, 10, Infra.ConfigIII)
    val ssd = BspCostModel.estimateSeconds(metrics(), bytes, 10, Infra.ConfigIV)
    assert(ssd < hdd)
  }

  test("lower CommCost reduces time for edge-bound algorithms") {
    val high = BspCostModel.estimateSeconds(metrics(commCost = 2000000), bytes, 10, Infra.ConfigII)
    val low  = BspCostModel.estimateSeconds(metrics(commCost = 500000), bytes, 10, Infra.ConfigII)
    assert(low < high)
  }

  test("worse balance increases compute time") {
    val even   = BspCostModel.estimateSeconds(metrics(balance = 1.0), bytes, 10, Infra.ConfigII)
    val skewed = BspCostModel.estimateSeconds(metrics(balance = 4.0), bytes, 10, Infra.ConfigII)
    assert(even < skewed)
  }

  test("more supersteps cost more") {
    val s5  = BspCostModel.estimateSeconds(metrics(), bytes, 5, Infra.ConfigII)
    val s10 = BspCostModel.estimateSeconds(metrics(), bytes, 10, Infra.ConfigII)
    assert(s5 < s10)
    assertThrows[IllegalArgumentException](
      BspCostModel.estimateSeconds(metrics(), bytes, 0, Infra.ConfigII))
  }

  test("infra configs match the paper's setup") {
    assert(Infra.ConfigII.networkGbps == 1.0)
    assert(Infra.ConfigIII.networkGbps == 40.0)
    assert(Infra.ConfigIII.storageMBps == Infra.ConfigII.storageMBps)
    assert(Infra.ConfigIV.storageMBps > Infra.ConfigIII.storageMBps)
  }

  test("improvementPct: basic algebra") {
    assert(BspCostModel.improvementPct(10.0, 8.0) == 20.0)
    assert(BspCostModel.improvementPct(10.0, 10.0) == 0.0)
    assert(BspCostModel.improvementPct(10.0, 12.0) == -20.0)
  }

  test("network upgrade improvement lands in the paper's regime (>5%, <50%)") {
    val ii  = BspCostModel.estimateSeconds(metrics(), bytes, 10, Infra.ConfigII)
    val iii = BspCostModel.estimateSeconds(metrics(), bytes, 10, Infra.ConfigIII)
    val gain = BspCostModel.improvementPct(ii, iii)
    assert(gain > 5.0 && gain < 50.0, s"network gain $gain%")
  }

  test("partitioner choice matters more on better infrastructure (paper's conclusion)") {
    // Two partitioners differing in balance (the component infrastructure
    // cannot hide): as shared network/storage costs shrink, the same absolute
    // gap becomes a larger share of the runtime — the paper's observation
    // that a good partitioner "has a bigger impact for better infrastructure".
    val balanced = metrics(balance = 1.0)
    val skewed   = metrics(balance = 2.0)
    def relGap(infra: Infra): Double = {
      val a = BspCostModel.estimateSeconds(skewed, bytes, 10, infra)
      val b = BspCostModel.estimateSeconds(balanced, bytes, 10, infra)
      (a - b) / a
    }
    assert(relGap(Infra.ConfigIII) > relGap(Infra.ConfigII))
    assert(relGap(Infra.ConfigIV) > relGap(Infra.ConfigIII))
  }
}
