package cutfit.bench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Executors, TimeUnit, TimeoutException}

import org.apache.spark.sql.SparkSession

import scala.concurrent.duration._
import scala.concurrent.{Await, ExecutionContext, Future}

/** The Cut-to-Fit benchmark: one workload, one seed, one JSON result line.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir> --deadline <s>
  *
  * `--deadline` is the number of seconds after JVM start by which every timed
  * cell must have ended.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean, out: String,
      deadline: Double)

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Options(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", need("out"), need("deadline").toDouble)
  }

  /** Same session settings as the test suite and the jobs: 64 shuffle
    * partitions and no broadcast joins, on every local core.
    */
  def session(out: String): SparkSession =
    SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("cutfit-bench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$out/spark-local")
      .config("spark.sql.warehouse.dir", s"$out/warehouse")
      .getOrCreate()

  /** Nominal wall time of one round of a workload's cells on a 4-core
    * machine: a run of `--seconds s` times `round(s / RoundSeconds)` rounds,
    * at least one.
    */
  val RoundSeconds = 10.0

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    def sinceStart = (System.currentTimeMillis() - jvmStart) / 1e3
    val spark = session(opts.out)
    val sessionUp = sinceStart
    val tracer = new Tracer(spark.sparkContext, opts.trace)
    val workload = Workload(opts.workload, spark, tracer, opts.seed)

    val (generated, generateS) = timed(workload.datasets.map { case (name, div) =>
      name -> workload.generate(name, div)
    })
    // Collecting the inputs for the checks is the benchmark's own work, so
    // set-up time leaves it out.
    val (_, collectS) = timed(workload.install(generated))
    val (_, prepareS) = timed(workload.prepare())

    // A plain run times a fixed number of rounds, so every process runs the
    // same cells. A traced run times one round in which each cell runs twice
    // back to back, traced and untraced, the order alternating from cell to
    // cell, so that the overhead ratio compares runs in the same warm state.
    val cells = workload.cells
    val plan: Seq[Seq[(Cell, Boolean)]] =
      if (opts.trace) Seq(cells.zipWithIndex.flatMap { case (c, i) =>
        if (i % 2 == 0) Seq(c -> true, c -> false) else Seq(c -> false, c -> true)
      })
      else Seq.fill(math.max(1, math.round(opts.seconds / RoundSeconds).toInt))(cells.map(_ -> false))
    val budget = new Budget(jvmStart + (opts.deadline * 1000).toLong, 1 + plan.map(_.size).sum)

    // Like `Experiments.timedSweep`, one untimed run of the first cell warms
    // the JIT before timing.
    val warm = runPass(workload, cells.take(1).map(_ -> false), budget)
    val setupS = sinceStart - collectS
    Console.err.println(f"setup: $setupS%.3f s (session $sessionUp%.3f s, generate $generateS%.3f s, " +
      f"prepare $prepareS%.3f s, warm-up ${warm.seconds}%.3f s; untimed collect $collectS%.3f s)")

    val passes = plan.map { round =>
      val p = runPass(workload, round, budget)
      tracer.fence()
      p
    }
    Console.err.println(f"cells ended ${sinceStart}%.1f s after JVM start")

    val problems = passes.flatMap(p => workload.check(p.results))
    problems.foreach(p => Console.err.println(s"CHECK FAILED: $p"))
    val attempted = passes.map(_.results.size).sum
    val failed = passes.map(_.results.count(_._2.isEmpty)).sum

    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) {
        val passS = Stats.median(passes.map(_.seconds))
        Seq(("setup_s", setupS, "s"),
          ("pass_s", passS, "s"),
          ("edges_per_s", cells.map(_.input.numEdges).sum / passS, "1/s"),
          ("live_heap_peak_mb", passes.map(_.heapPeakMb).max, "MB"))
      } else {
        val readout = Readout(tracer, cells)
        readout.print()
        val runs = passes.flatMap(_.runs)
        def seconds(traced: Boolean) = runs.filter(_.traced == traced).map(_.seconds).sum
        readout.metrics ++ Seq(
          ("trace.overhead_ratio", seconds(true) / seconds(false), "ratio"),
          ("fail_ratio", failed.toDouble / attempted, "ratio"))
      }
    spark.stop()
    println(Json.result(problems.isEmpty, attempted, failed, metrics))
  }

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Shares the time left until a deadline (epoch milliseconds) among the
    * cells still to run. A cell may run for its share, so a run in which
    * every cell hangs still ends by the deadline.
    */
  final class Budget(deadlineMs: Long, private var cellsLeft: Int) {
    def nextTimeout(): FiniteDuration = {
      val share = math.max(0L, deadlineMs - System.currentTimeMillis()) / math.max(1, cellsLeft)
      cellsLeft -= 1
      share.millis
    }
  }

  /** One timed run of a cell: its wall time, and its result unless it failed. */
  final case class Run(cell: Cell, traced: Boolean, seconds: Double, result: Option[Any])

  final case class Pass(runs: Seq[Run], heapPeakMb: Double) {
    def seconds: Double = runs.map(_.seconds).sum
    def results: Seq[(Cell, Option[Any])] = runs.map(r => r.cell -> r.result)
  }

  /** Run the cells in order, each traced or not as given, on its own thread
    * under its share of the [[Budget]]. A cell that throws, runs out of
    * memory or times out yields `None` and the pass goes on. After each cell
    * an untimed full GC measures the live heap.
    */
  def runPass(workload: Workload, cells: Seq[(Cell, Boolean)], budget: Budget): Pass = {
    val sc = workload.spark.sparkContext
    var heapPeak = 0L
    val runs = cells.map { case (cell, traced) =>
      val timeout = budget.nextTimeout()
      workload.tracer.traced = traced
      val pool = Executors.newSingleThreadExecutor(r => { val t = new Thread(r, "cell"); t.setDaemon(true); t })
      val start = System.nanoTime()
      // Throwable, not NonFatal: an OutOfMemoryError is a failed cell too.
      val body = Future {
        try Right(cell.run()) catch { case t: Throwable => Left(t) }
      }(ExecutionContext.fromExecutor(pool))
      val outcome =
        try Await.result(body, timeout)
        catch { case e: TimeoutException => sc.cancelAllJobs(); Left(e) }
      val result = outcome match {
        case Right(r) => Some(r)
        case Left(e) => Console.err.println(s"cell ${cell.label} failed: $e"); None
      }
      val dt = (System.nanoTime() - start) / 1e9
      // A timed-out cell's thread gets a second to stop; a daemon thread
      // that ignores the interrupt is left behind.
      pool.shutdownNow()
      pool.awaitTermination(1, TimeUnit.SECONDS)
      workload.tracer.traced = false
      System.gc()
      heapPeak = math.max(heapPeak, ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed)
      Console.err.println(f"cell ${cell.label}%-28s ${if (traced) "traced" else ""}%-6s $dt%8.3f s")
      Run(cell, traced, dt, result)
    }
    Pass(runs, heapPeak / 1048576.0)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

object Json {
  private def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric is not finite: $x")
    java.lang.Double.toString(x)
  }

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String =
    metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")
}
