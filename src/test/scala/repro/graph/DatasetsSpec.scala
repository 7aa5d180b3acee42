package repro.graph

import repro.SparkSpec

/** Dataset registry tests at a heavy scale divisor (tiny graphs). */
class DatasetsSpec extends SparkSpec {

  test("registry lists the nine Table 1 datasets in vertex order") {
    assert(Datasets.all.map(_.name) == Seq(
      "RoadNet-PA", "YouTube", "RoadNet-TX", "Pocek", "RoadNet-CA",
      "Orkut", "socLiveJournal", "follow-jul", "follow-dec"))
    assert(Datasets.all.map(_.paperVertices) == Datasets.all.map(_.paperVertices).sorted)
  }

  test("byName resolves every dataset and rejects unknowns") {
    Datasets.all.foreach(s => assert(Datasets.byName(s.name) eq s))
    assertThrows[IllegalArgumentException](Datasets.byName("twitter-2010"))
  }

  test("paper characterization numbers transcribed from Table 1") {
    val yt = Datasets.byName("YouTube")
    assert(yt.paperSymmPct == 100.0 && yt.paperDiameter == Some(20))
    val fd = Datasets.byName("follow-dec")
    assert(fd.paperZeroInPct == 55.05 && fd.paperComponents == 47)
    assert(Datasets.byName("Pocek").paperSymmPct == 54.34)
  }

  for (spec <- Datasets.all) {
    test(s"${spec.name}: generates a non-empty deterministic simple graph at div=5000") {
      val e1 = Datasets.edges(spark, spec, div = 5000).cache()
      assert(e1.count() > 0)
      assert(e1.count() == e1.distinct().count(), "no duplicate edges")
      assert(e1.where("src = dst").count() == 0, "no self-loops")
      // The second generation runs under another shuffle partitioning, which
      // must not change the edge set.
      val shufflePartitions = spark.conf.get("spark.sql.shuffle.partitions")
      spark.conf.set("spark.sql.shuffle.partitions", "7")
      try {
        val e2 = Datasets.edges(spark, spec, div = 5000).cache()
        assert(e1.except(e2).count() == 0 && e2.except(e1).count() == 0, "deterministic")
        e2.unpersist()
      } finally spark.conf.set("spark.sql.shuffle.partitions", shufflePartitions)
      e1.unpersist()
    }

    test(s"${spec.name}: equals the driver-side reference generator at div=5000") {
      val generated = Datasets.edges(spark, spec, div = 5000).collect()
        .map(r => (r.getLong(0), r.getLong(1))).toSet
      assert(generated == repro.SynthReference.edges(spec, div = 5000))
    }
  }

  test("symmetric datasets measure 100% symmetry at div=2000") {
    for (name <- Seq("YouTube", "RoadNet-PA")) {
      val e = Datasets.edges(spark, Datasets.byName(name), div = 2000)
      assert(GraphOps.symmetryPct(e) == 100.0, name)
    }
  }

  test("partially-symmetric datasets land near their paper Symm% at div=500") {
    for (name <- Seq("Pocek", "socLiveJournal")) {
      val spec     = Datasets.byName(name)
      val measured = GraphOps.symmetryPct(Datasets.edges(spark, spec, div = 500))
      assert(math.abs(measured - spec.paperSymmPct) < 12.0,
        s"$name: measured $measured vs paper ${spec.paperSymmPct}")
    }
  }

  test("follow datasets have substantial zero-in and zero-out fractions") {
    val spec = Datasets.byName("follow-dec")
    val deg  = GraphOps.degrees(Datasets.edges(spark, spec, div = 2000)).cache()
    val vertices = deg.count().toDouble
    val zeroIn  = 100.0 * deg.filter("inDeg = 0").count() / vertices
    val zeroOut = 100.0 * deg.filter("outDeg = 0").count() / vertices
    assert(zeroIn > 20.0, s"zeroIn $zeroIn")
    assert(zeroOut > 5.0, s"zeroOut $zeroOut")
    deg.unpersist()
  }

  test("road datasets fragment into multiple components at div=500") {
    val e = Datasets.edges(spark, Datasets.byName("RoadNet-TX"), div = 500)
    val g = repro.algorithms.GraphBuilder.partitioned(e, repro.partition.Partitioners.RVC, 4)
    assert(repro.algorithms.ConnectedComponentsAlg.count(g) > 1)
  }

  test("scale divisor controls graph size monotonically") {
    val big   = Datasets.edges(spark, Datasets.byName("YouTube"), div = 1000).count()
    val small = Datasets.edges(spark, Datasets.byName("YouTube"), div = 4000).count()
    assert(big > small)
  }

  test("div must be at least 1") {
    assertThrows[IllegalArgumentException](Datasets.edges(spark, Datasets.byName("YouTube"), div = 0))
  }
}
