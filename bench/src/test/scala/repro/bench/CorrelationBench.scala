package repro.bench

import repro.SparkSpec
import repro.core.{Experiments, Parsel}

/** Reproduces Figures 3–6 as tables: a timed sweep of every algorithm over
  * (dataset × partitioner × granularity), the Pearson correlation of wall
  * time against CommCost and Cut, and the per-dataset best partitioner.
  *
  * Paper anchors (correlation to execution time, configs (i)/(ii)):
  *   PageRank: CommCost 95% / 96% — CC: CommCost 92% / 94% —
  *   TriangleCount: Cut 95% / 97% (CommCost only 43% / 34%) —
  *   SSSP: CommCost 80% / 86%.
  */
class CorrelationBench extends SparkSpec {

  private val partsList = Seq(Experiments.coarseParts, Experiments.fineParts)

  // One sweep per algorithm, computed on first use so a failure in one
  // algorithm's sweep cannot void the others' (each sweep is ~10 min of work).
  private val sweepCache =
    scala.collection.mutable.Map.empty[Parsel.AlgoKind, Seq[Experiments.Cell]]

  private def sweeps(kind: Parsel.AlgoKind): Seq[Experiments.Cell] =
    sweepCache.getOrElseUpdate(kind, Experiments.timedSweep(spark, kind))

  test("PageRank: execution time correlates positively with CommCost (paper: 95-96%)") {
    Experiments.printSweep(Parsel.PR, sweeps(Parsel.PR))
    for (parts <- partsList) {
      val r = Experiments.correlation(sweeps(Parsel.PR), parts, _.commCost)
      assert(r > 0.3, s"parts=$parts: corr ${100 * r}%")
    }
  }

  test("ConnectedComponents: execution time correlates positively with CommCost (paper: 92-94%)") {
    Experiments.printSweep(Parsel.CC, sweeps(Parsel.CC))
    for (parts <- partsList) {
      val r = Experiments.correlation(sweeps(Parsel.CC), parts, _.commCost)
      assert(r > 0.2, s"parts=$parts: corr ${100 * r}%")
    }
  }

  test("TriangleCount: execution time correlates positively with Cut (paper: 95-97%)") {
    Experiments.printSweep(Parsel.TR, sweeps(Parsel.TR))
    for (parts <- partsList) {
      val r = Experiments.correlation(sweeps(Parsel.TR), parts, _.cut)
      assert(r > 0.2, s"parts=$parts: corr ${100 * r}%")
    }
  }

  test("SSSP: execution time correlates positively with CommCost (paper: 80-86%)") {
    Experiments.printSweep(Parsel.SSSP, sweeps(Parsel.SSSP))
    for (parts <- partsList) {
      val r = Experiments.correlation(sweeps(Parsel.SSSP), parts, _.commCost)
      assert(r > 0.1, s"parts=$parts: corr ${100 * r}%")
    }
  }

  test("sweeps cover every panel dataset x partitioner x granularity cell") {
    val panel = Experiments.timedDatasets.size
    assert(sweeps(Parsel.PR).size == panel * 6 * 2)
    assert(sweeps(Parsel.TR).size == panel * 6 * 2)
    // SSSP excludes the road networks, as in the paper.
    assert(sweeps(Parsel.SSSP).size == (panel - 1) * 6 * 2)
    for (kind <- Parsel.algoKinds; c <- sweeps(kind)) assert(c.run.millis > 0)
  }
}
