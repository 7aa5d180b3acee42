package repro.jobs

import repro.core.Experiments

/** Command-line entrypoint: `repro.jobs.Main <experiment>` computes one of
  * the paper's results and prints it, where `<experiment>` is one of
  * `table1 | table2 | table3 | correlation | infra | parsel`. The scale
  * comes from the `REPRO_*` environment variables (see README).
  */
object Main {
  def main(args: Array[String]): Unit =
    Experiments.experiments.toMap.get(args.headOption.getOrElse("")) match {
      case Some(run) if args.length == 1 =>
        val spark = Experiments.session(args(0))
        try run(spark)
        finally spark.stop()
      case _ =>
        System.err.println("usage: repro.jobs.Main <experiment>, where <experiment> is one of " +
          Experiments.experiments.map(_._1).mkString(" | "))
        sys.exit(2)
    }
}
