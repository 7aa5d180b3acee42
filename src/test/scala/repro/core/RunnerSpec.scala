package repro.core

import repro.SparkSpec
import repro.partition.Partitioners

/** Timing-harness tests. */
class RunnerSpec extends SparkSpec {

  private lazy val edges =
    repro.graph.SynthGraphs.rmat(spark, scale = 8, numEdges = 600, seed = 91).cache()

  test("pearson: perfectly correlated data scores 1") {
    assert(math.abs(Runner.pearson(Seq(1, 2, 3, 4), Seq(10, 20, 30, 40)) - 1.0) < 1e-12)
  }

  test("pearson: perfectly anti-correlated data scores -1") {
    assert(math.abs(Runner.pearson(Seq(1, 2, 3), Seq(3, 2, 1)) + 1.0) < 1e-12)
  }

  test("pearson: constant series scores 0 by convention") {
    assert(Runner.pearson(Seq(5, 5, 5), Seq(1, 2, 3)) == 0.0)
  }

  test("pearson: symmetric in its arguments") {
    val xs = Seq(1.0, 4.0, 2.0, 8.0)
    val ys = Seq(3.0, 1.0, 7.0, 2.0)
    assert(math.abs(Runner.pearson(xs, ys) - Runner.pearson(ys, xs)) < 1e-12)
  }

  test("pearson rejects mismatched or too-short input") {
    assertThrows[IllegalArgumentException](Runner.pearson(Seq(1), Seq(1)))
    assertThrows[IllegalArgumentException](Runner.pearson(Seq(1, 2), Seq(1)))
  }

  test("sampleVertices: deterministic, sized, and drawn from the vertex set") {
    val s1 = Runner.sampleVertices(edges, 5)
    val s2 = Runner.sampleVertices(edges, 5)
    assert(s1 == s2)
    assert(s1.size == 5)
    val vs = edges.collect().flatMap(r => Seq(r.getLong(0), r.getLong(1))).toSet
    assert(s1.forall(vs.contains))
  }

  test("sampleVertices: different seeds draw different samples") {
    assert(Runner.sampleVertices(edges, 5, seed = 1) !=
      Runner.sampleVertices(edges, 5, seed = 99))
  }

  test("timeRun: every algorithm executes end-to-end") {
    val landmarks = Runner.sampleVertices(edges, 2)
    for (kind <- Parsel.algoKinds)
      assert(Runner.timeRun(edges, kind, Partitioners.TwoD, 4, landmarks) > 0, kind.name)
  }
}
