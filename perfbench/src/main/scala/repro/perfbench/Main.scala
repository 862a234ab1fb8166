package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.{Row, SparkSession}
import repro.baseline.{BSL, BslOutcome, BslSimilarities, Weighting}
import repro.core.{MinoanER, PRF}
import repro.kb.{Datasets, KBConfig, KBGen, KBPair}

/** What an untraced run times: `MinoanER.resolve` or the BSL sweep. */
sealed trait Pipeline
case object Resolve extends Pipeline
case object Sweep extends Pipeline

/** One benchmark workload: the pipeline it times, a preset at a fixed scale,
  * and the F1 floors the repository pins for that preset at unit-test scale:
  * MinoanER's in `PipelineIntegrationSpec`, BSL's in `BSLSpec` (Restaurant
  * only, pinned for the unigram TF-IDF grid).
  */
final case class Workload(name: String, pipeline: Pipeline, preset: KBConfig, scale: Double,
                          f1Floor: Double, bslF1Floor: Double) {
  def config(seed: Long): KBConfig = preset.scaled(scale).copy(seed = seed)
}

object Workloads {
  val all: Map[String, Workload] = Seq(
    Workload("rexa", Resolve, Datasets.rexaDblp, 1.0 / 32, 0.70, 0.0),
    Workload("bsl", Sweep, Datasets.restaurant, 0.125, 0.85, 0.90),
  ).map(w => w.name -> w).toMap
}

/** The BSL grid the benchmark sweeps: unigrams and TF weighting, with every
  * measure and threshold. That is 80 of the 420 configurations and 4 of the
  * 24 UMC passes of the full sweep. TF-IDF would add two counts and an IDF
  * join per sweep, and the traced run, which sweeps twice besides replaying
  * `resolve`, would no longer fit its time limit.
  */
object BslGrid {
  val ns: Seq[Int] = Seq(1)
  val weightings: Seq[String] = Seq(Weighting.TF)
  val size: Int = ns.size * weightings.size * BslSimilarities.all.size * BSL.Thresholds.size

  def sweep(spark: SparkSession, pair: KBPair): (BslOutcome, Seq[BslOutcome]) =
    BSL.sweep(spark, pair.kb1, pair.kb2, pair.groundTruth, ns = ns, weightings = weightings)

  /** Output checks of one sweep; returns the failed ones. */
  def check(w: Workload, best: BslOutcome, all: Seq[BslOutcome]): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    if (all.size != size) out += s"BSL swept ${all.size} configurations, expected $size"
    if (all.nonEmpty && best.prf.f1 != all.map(_.prf.f1).max) out += s"BSL best $best does not maximize F1"
    if (best.prf.f1 < w.bslF1Floor)
      out += f"BSL F1 ${best.prf.f1 * 100}%.2f below the floor ${w.bslF1Floor * 100}%.2f"
    out.toSeq
  }
}

/** Matches collected on the driver, with the checks every run applies. */
final case class MatchSet(pairs: Set[(Long, Long, String)]) {

  /** Order-independent SHA-256 of the (e1, e2, heuristic) set. */
  lazy val digest: String = {
    val md = MessageDigest.getInstance("SHA-256")
    pairs.toSeq.map { case (a, b, h) => s"$a,$b,$h" }.sorted
      .foreach(s => md.update((s + "\n").getBytes(StandardCharsets.UTF_8)))
    md.digest().map(b => f"$b%02x").mkString
  }

  /** Paper-style P/R/F1, as `Evaluation.evaluateOnGtE1` defines it: only
    * predictions whose e1 appears in the ground truth count.
    */
  def prf(gt: Set[(Long, Long)]): PRF = {
    val gtE1 = gt.map(_._1)
    val pred = pairs.iterator.map(p => (p._1, p._2)).filter(p => gtE1.contains(p._1)).toSet
    PRF(pred.count(gt.contains).toLong, pred.size.toLong, gt.size.toLong)
  }

  def tags: Set[String] = pairs.map(_._3)
}

object MatchSet {
  def of(rows: Array[Row]): MatchSet =
    MatchSet(rows.iterator.map(r => (r.getAs[Long]("e1"), r.getAs[Long]("e2"), r.getAs[String]("heuristic"))).toSet)
}

/** The operations of one run. An operation fails if it throws or fails an
  * output check; either way, Spark's caches are released when it ends, so
  * the next operation does not inherit them.
  */
final class Attempts(spark: SparkSession) {
  private var attempted, failed = 0
  private val failures = mutable.ArrayBuffer.empty[String]

  def apply[A](what: String)(body: => (A, Seq[String])): Option[A] = {
    attempted += 1
    try {
      val (a, problems) = body
      if (problems.nonEmpty) { failed += 1; failures ++= problems.map(p => s"$what: $p") }
      Some(a)
    } catch {
      case NonFatal(e) => failed += 1; failures += s"$what threw $e"; None
    } finally spark.catalog.clearCache()
  }

  def result: Map[String, Any] =
    Map("correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed, "failures" -> failures.toSeq)
}

/** Benchmark entry point.
  *
  * Usage: Main --workload <name> [--seed <n>] --seconds <s> --trace <0|1>
  *             --out <result.json> [--source-digest <hex>] [--git-commit <id>]
  *
  * With `--trace 0` it times the workload's pipeline once: one
  * `MinoanER.resolve` until its matches are collected, or one BSL sweep (see
  * [[BslGrid]]). With `--trace 1` it runs the traced replay of both (see
  * [[TracedRun]]). Both write a JSON result file; its
  * `metrics` are what the benchmark reports.
  */
object Main {
  /** Timed `KBGen.generate` calls per untraced run. */
  val SetupRepeats = 21
  val AllowedTags = Set("H1", "H2", "H3")

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def metricsJson(m: scala.collection.Map[String, (Double, String)]): scala.collection.Map[String, Map[String, Any]] =
    m.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }

  /** Spark's scratch space comes from SPARK_LOCAL_DIRS, which run.py points
    * into the checkout (it takes precedence over `spark.local.dir`).
    */
  def session(): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("repro-perfbench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The settings both sides of a comparison must share. */
  def settings(spark: SparkSession, w: Workload, cfg: KBConfig, args: Map[String, String]): Map[String, Any] =
    Map(
      "master" -> spark.sparkContext.master,
      "cores" -> spark.sparkContext.defaultParallelism,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "auto_broadcast_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark_version" -> spark.version,
      "java_version" -> System.getProperty("java.version"),
      "scala_version" -> scala.util.Properties.versionNumberString,
      "git_commit" -> args.get("git-commit"),
      "source_sha256" -> args.get("source-digest"),
      "preset" -> w.preset.name,
      "scale" -> w.scale,
      "seed" -> cfg.seed,
      "entities" -> Seq(cfg.n1, cfg.n2),
      "ground_truth_pairs" -> cfg.nMatches,
      "run_seconds" -> args("seconds").toInt)

  /** Total JVM garbage-collection time so far. */
  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  /** CPU time of the whole JVM so far: driver, executor and JIT threads. */
  def processCpuSeconds(): Double = ManagementFactory.getOperatingSystemMXBean match {
    case os: com.sun.management.OperatingSystemMXBean => os.getProcessCpuTime / 1e9
    case _ => Double.NaN
  }

  def retainedCacheMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1e6

  def groundTruth(pair: KBPair): Set[(Long, Long)] =
    pair.groundTruth.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  /** Output checks of one resolve; returns the failed ones. */
  def check(w: Workload, m: MatchSet, gt: Set[(Long, Long)]): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    if (!m.tags.subsetOf(AllowedTags)) out += s"heuristic tags ${m.tags} not within $AllowedTags"
    val f1 = m.prf(gt).f1
    if (f1 < w.f1Floor) out += f"F1 ${f1 * 100}%.2f below the floor ${w.f1Floor * 100}%.2f"
    out.toSeq
  }

  private def parseArgs(args: Array[String]): Map[String, String] = {
    require(args.length % 2 == 0, "arguments come in --name value pairs")
    args.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), s"unexpected argument $k"); k.drop(2) -> v
    }.toMap
  }

  def main(argv: Array[String]): Unit = {
    val jvmToMainS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val args = parseArgs(argv)
    val w = Workloads.all.getOrElse(args("workload"),
      throw new IllegalArgumentException(s"unknown workload ${args("workload")}"))
    val seed = args.get("seed").map(_.toLong).getOrElse(w.preset.seed)
    val cfg = w.config(seed)
    val (spark, sessionS) = seconds(session())
    try {
      val result =
        if (args("trace") == "1") TracedRun.run(spark, w, cfg)
        else untraced(spark, w, cfg)
      val doc = result ++ Map(
        "workload" -> w.name,
        "trace" -> (args("trace") == "1"),
        "settings" -> settings(spark, w, cfg, args),
        "startup_s" -> Map("jvm_to_main" -> jvmToMainS, "session" -> sessionS))
      Files.write(Paths.get(args("out")), Json.encode(doc).getBytes(StandardCharsets.UTF_8))
    } finally spark.stop()
  }

  /** The timed run: the workload's pipeline once, on the KB frames exactly as
    * `KBGen.generate` returned them, then `SetupRepeats` set-up calls.
    *
    * The pipeline is the first of a fresh JVM, with its JIT and
    * code-generation warm-up, which is what one spark-submit job pays.
    *
    * `setup_s` is the median of the set-up calls after the pipeline. The
    * first `KBGen.generate` of a JVM, which makes the pair, is 20-40 times
    * slower than a warm one (class loading), so it is kept as a sample only.
    */
  def untraced(spark: SparkSession, w: Workload, cfg: KBConfig): Map[String, Any] = {
    val (pair, firstSetupS) = seconds(KBGen.generate(spark, cfg))
    val gt = groundTruth(pair)

    val attempt = new Attempts(spark)
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    val (gc0, cpu0) = (gcSeconds(), processCpuSeconds())
    val output: Map[String, Any] = w.pipeline match {
      case Resolve =>
        val matches = attempt("resolve") {
          val (rows, dt) = seconds(MinoanER.resolve(spark, pair.kb1, pair.kb2).matches.collect())
          metrics("pipeline_s") = (dt, "s")
          metrics("retained_cache_mb") = (retainedCacheMb(spark), "MB")
          val m = MatchSet.of(rows)
          metrics("f1") = (m.prf(gt).f1 * 100, "%")
          (m, check(w, m, gt))
        }
        Map("matches" -> matches.map(_.pairs.size), "match_digest" -> matches.map(_.digest),
            "prf" -> matches.map(_.prf(gt).toString))
      case Sweep =>
        val best = attempt("BSL sweep") {
          val ((best, all), dt) = seconds(BslGrid.sweep(spark, pair))
          metrics("pipeline_s") = (dt, "s")
          metrics("retained_cache_mb") = (retainedCacheMb(spark), "MB")
          metrics("f1") = (best.prf.f1 * 100, "%")
          (best, BslGrid.check(w, best, all))
        }
        Map("bsl_best" -> best.map(_.toString))
    }
    val samples = Map("pipeline_gc_s" -> (gcSeconds() - gc0), "pipeline_process_cpu_s" -> (processCpuSeconds() - cpu0))
    val setups = (1 to SetupRepeats).map(_ => seconds(KBGen.generate(spark, cfg))._2)
    metrics("setup_s") = (median(setups), "s")

    attempt.result ++ output ++ Map(
      "metrics" -> Main.metricsJson(metrics),
      "samples" -> (samples ++ Map("first_setup_s" -> firstSetupS, "setup_s" -> setups)))
  }
}
