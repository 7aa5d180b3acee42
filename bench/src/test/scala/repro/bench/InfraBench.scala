package repro.bench

import repro.SparkSpec
import repro.core.Experiments
import repro.sim.{BspCostModel, Infra}

/** Reproduces the §4 infrastructure experiment through the BSP cost model
  * (hardware substitution — see DESIGN.md): PageRank on follow-dec at fine
  * grain under configs (ii), (iii), (iv). Paper: (iii) is 15 % faster than
  * (ii); (iv) is 20 % faster.
  */
class InfraBench extends SparkSpec {

  private lazy val (metrics, bytes) = Experiments.infraInputs(spark)

  private def estimate(infra: Infra): Double =
    BspCostModel.estimateSeconds(metrics, bytes, supersteps = 10, infra)

  test("print infra experiment: measured vs paper") {
    Experiments.printInfra(metrics, bytes)
  }

  test("40Gbps network improves PageRank in the paper's regime (~15%)") {
    val gain = BspCostModel.improvementPct(estimate(Infra.ConfigII), estimate(Infra.ConfigIII))
    assert(gain > 4.0 && gain < 35.0, s"network gain $gain%")
  }

  test("40Gbps + SSD improves further (~20%), and strictly beats HDD") {
    val ii  = estimate(Infra.ConfigII)
    val iii = estimate(Infra.ConfigIII)
    val iv  = estimate(Infra.ConfigIV)
    val gain = BspCostModel.improvementPct(ii, iv)
    assert(iv < iii, "SSD must beat HDD at equal network speed")
    assert(gain > 6.0 && gain < 45.0, s"combined gain $gain%")
  }

  test("partitioner choice has a bigger relative impact on better infrastructure") {
    // Hold everything fixed but the balance factor (the partitioning defect
    // infrastructure cannot hide): the absolute compute gap it causes is the
    // same on every config, so as network/storage costs shrink, the *relative*
    // cost of a bad partitioner grows — the paper's concluding observation.
    val skewed = metrics.copy(balance = metrics.balance * 4)
    def relGap(infra: Infra): Double = {
      val good = BspCostModel.estimateSeconds(metrics, bytes, 10, infra)
      val bad  = BspCostModel.estimateSeconds(skewed, bytes, 10, infra)
      (bad - good) / bad
    }
    println(f"bad-partitioner relative penalty: (ii) ${100 * relGap(Infra.ConfigII)}%5.1f%%  " +
      f"(iii) ${100 * relGap(Infra.ConfigIII)}%5.1f%%  (iv) ${100 * relGap(Infra.ConfigIV)}%5.1f%%")
    assert(relGap(Infra.ConfigIII) > relGap(Infra.ConfigII))
    assert(relGap(Infra.ConfigIV) > relGap(Infra.ConfigIII))
  }
}
