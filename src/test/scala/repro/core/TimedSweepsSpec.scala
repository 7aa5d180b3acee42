package repro.core

import repro.SparkSpec
import repro.graph.Datasets
import repro.partition.Metrics

/** The correlation sweep's driver on a road network and a social graph at a
  * tiny scale.
  */
class TimedSweepsSpec extends SparkSpec {

  test("timedSweeps: one positive-time cell per (dataset, strategy, granularity), with its metrics") {
    // A cell's time on graphs this small is mostly per-task overhead, and the
    // generated edge list has as many partitions as the SQL shuffles, which
    // GraphX keeps for its vertices. One instead of 64 cuts the test from
    // about 6 min to under 1.5 min on 4 cores; the expected rows below are
    // computed under the same setting.
    val shufflePartitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "1")
    try {
      val datasets = Seq("RoadNet-PA", "YouTube").map(Datasets.byName)
      val div = 20000
      val partsList = Seq(Experiments.coarseParts, Experiments.fineParts)
      val sweeps = Experiments.timedSweeps(spark, datasets, div)
      val rows = (for (spec <- datasets; parts <- partsList) yield
        (spec, parts) -> Metrics.computeAll(spec.name, Datasets.edges(spark, spec, div), parts)).toMap
      assert(sweeps.map(_._1) == Parsel.algoKinds)
      for ((kind, cells) <- sweeps) {
        // SSSP skips the road network.
        val timed = if (kind == Parsel.SSSP) datasets.tail else datasets
        assert(cells.map(_.metrics) == (for (spec <- timed; parts <- partsList) yield rows((spec, parts))).flatten,
          kind.name)
        assert(cells.forall(_.millis > 0), kind.name)
      }
    } finally spark.conf.set("spark.sql.shuffle.partitions", shufflePartitions)
  }
}
