package repro.jobs

import repro.core.Experiments

/** Command-line entrypoint: `repro.jobs.Main <experiment>` computes one of
  * the paper's results, prints it, and checks it against the shape the paper
  * reports, where `<experiment>` is one of
  * `table1 | metrics | correlation | infra | parsel`. The scale comes from
  * the `REPRO_*` environment variables (see README). Each failed check is
  * printed to standard error. The exit status is 0 when every check passes,
  * 1 when one fails, and 2 on a usage error.
  */
object Main {
  def main(args: Array[String]): Unit =
    Experiments.experiments.toMap.get(args.headOption.getOrElse("")) match {
      case Some(run) if args.length == 1 =>
        val spark = Experiments.session(args(0))
        val failures = try run(spark) finally spark.stop()
        failures.foreach(f => System.err.println(s"check failed: $f"))
        if (failures.nonEmpty) sys.exit(1)
      case _ =>
        System.err.println("usage: repro.jobs.Main <experiment>, where <experiment> is one of " +
          Experiments.experiments.map(_._1).mkString(" | "))
        sys.exit(2)
    }
}
