package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.lit
import repro.baseline._
import repro.core._
import repro.kb.{KBConfig, KBGen, KBPair}

/** The traced run: per-layer spans and Spark counts, recorded from outside
  * the program by timing calls into each layer's public functions.
  *
  *  1. `kbgen`: one `KBGen.generate`.
  *  2. One traced `resolve`: spans `resolve.call` and `resolve.collect`. Like
  *     `pipeline_s` of an untraced `rexa` run, it is the JVM's first resolve,
  *     so the two compare directly for the same seed.
  *  3. Replay: `resolve`'s steps, one span per layer, each output cached and
  *     materialized once with a count inside its span. It runs after step 2,
  *     with the JIT and code generation warm.
  *  4. One traced BSL sweep over [[BslGrid]] (span `bsl.sweep`), then its
  *     replay (span `bsl.replay`), one span per BSL layer.
  *
  * A replay is faithful only if it reproduces what the program returned: the
  * H4 output must equal the traced resolve's match set, and the BSL replay
  * must reproduce the sweep's outcomes, so its best configuration and F1.
  * Otherwise the run fails, since its layer numbers would describe a
  * different program.
  */
object TracedRun {
  val ReplaySpans: Seq[String] =
    Seq("stats", "h1", "tokenize", "bt", "purge", "valuesim", "neighborsim", "h2", "h3", "h4")

  private def materialize(tr: Tracer, span: String, df: DataFrame): DataFrame = {
    val c = df.cache()
    tr.addRows(span, c.count())
    c
  }

  /** Replays `MinoanER.resolve` (default parameters) step by step; returns
    * its matches and ratios.
    */
  def replay(tr: Tracer, pair: KBPair): (MatchSet, Map[String, Double]) = {
    val (kb1, kb2) = (pair.kb1, pair.kb2)
    val params = MinoanERParams()

    val (nameAttrs1, nameAttrs2, topRels1, topRels2) = tr.span("stats") {
      val r = (AttributeStats.topKNameAttributes(kb1, params.k),
               AttributeStats.topKNameAttributes(kb2, params.k),
               AttributeStats.topNRelations(kb1, params.N),
               AttributeStats.topNRelations(kb2, params.N))
      tr.addRows("stats", (r._1.size + r._2.size + r._3.size + r._4.size).toLong)
      r
    }

    val m1 = tr.span("h1") {
      val names1 = NameBlocking.names(kb1, nameAttrs1).cache()
      val names2 = NameBlocking.names(kb2, nameAttrs2).cache()
      NameBlocking.blocks(names1, names2).cache().count()
      materialize(tr, "h1", NameBlocking.h1Matches(names1, names2).withColumn("heuristic", lit("H1")))
    }

    val (tok1, tok2) = tr.span("tokenize") {
      (materialize(tr, "tokenize", Tokenizer.entityTokens(kb1)),
       materialize(tr, "tokenize", Tokenizer.entityTokens(kb2)))
    }
    val btAll = tr.span("bt")(materialize(tr, "bt", TokenBlocking.blocks(tok1, tok2)))
    val (btKept, weights) = tr.span("purge") {
      val kept = materialize(tr, "purge", TokenBlocking.purge(btAll, params.purgeSmooth))
      (kept, ValueSim.tokenWeights(kept).cache())
    }
    val vs = tr.span("valuesim")(materialize(tr, "valuesim", ValueSim.pairSims(tok1, tok2, weights)))
    val ns = tr.span("neighborsim") {
      val nbrs1 = NeighborSim.topNeighbors(kb1, topRels1).cache()
      val nbrs2 = NeighborSim.topNeighbors(kb2, topRels2).cache()
      materialize(tr, "neighborsim", NeighborSim.pairSims(nbrs1, nbrs2, vs))
    }

    val m2 = tr.span("h2") {
      materialize(tr, "h2", Heuristics.h2(vs, m1.select("e1"), m1.select("e2"))
        .withColumn("heuristic", lit("H2")))
    }
    val m3 = tr.span("h3") {
      val matched1 = m1.select("e1").union(m2.select("e1"))
      val matched2 = m1.select("e2").union(m2.select("e2"))
      materialize(tr, "h3", Heuristics.h3(vs, ns, matched1, matched2, params.K, params.theta)
        .withColumn("heuristic", lit("H3")))
    }
    val matches = tr.span("h4") {
      materialize(tr, "h4", Heuristics.h4(m1.unionByName(m2).unionByName(m3), vs, ns, params.K))
    }

    val result = MatchSet.of(matches.collect())
    val compAll = TokenBlocking.stats(btAll)._2
    val compKept = TokenBlocking.stats(btKept)._2
    val candidates = tr.rowsOut("h1") + tr.rowsOut("h2") + tr.rowsOut("h3")
    (result, Map(
      "purge.kept_comparisons_frac" -> (if (compAll > 0) compKept / compAll else Double.NaN),
      "h4.kept_frac" -> (if (candidates > 0) tr.rowsOut("h4").toDouble / candidates else Double.NaN)))
  }

  /** Replays `BSL.sweep` over [[BslGrid]] step by step, as the sweep runs
    * it; returns the outcomes in the sweep's order.
    */
  def bslReplay(tr: Tracer, pair: KBPair): Seq[BslOutcome] = {
    val (kb1, kb2) = (pair.kb1, pair.kb2)
    val cands = tr.span("bsl.candidates")(materialize(tr, "bsl.candidates", BSL.candidates(kb1, kb2)))
    val gtSet = pair.groundTruth.select("e1", "e2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val gtE1 = gtSet.map(_._1)
    for {
      n <- BslGrid.ns
      (g1, g2) = tr.span("bsl.ngrams") {
        (materialize(tr, "bsl.ngrams", Ngrams.entityGrams(kb1, n)),
         materialize(tr, "bsl.ngrams", Ngrams.entityGrams(kb2, n)))
      }
      scheme <- BslGrid.weightings
      (v1, v2) = tr.span("bsl.weighting") {
        val (a, b) = Weighting.weighted(g1, g2, scheme)
        (materialize(tr, "bsl.weighting", a), materialize(tr, "bsl.weighting", b))
      }
      simRows = tr.span("bsl.pairsims") {
        val rows = BslSimilarities.pairSims(v1, v2, cands).collect()
        tr.addRows("bsl.pairsims", rows.length.toLong)
        rows
      }
      outcome <- tr.span("bsl.umc") {
        BslSimilarities.all.flatMap { measure =>
          val mIdx = 2 + BslSimilarities.all.indexOf(measure)
          val accepted = UniqueMappingClustering.cluster(simRows.iterator.map { r =>
            val s = r.getDouble(mIdx)
            (r.getLong(0), r.getLong(1), if (s.isNaN) 0.0 else s)
          }.toSeq)
          BSL.Thresholds.map { t =>
            val pred = accepted.filter(p => p._3 >= t && gtE1.contains(p._1))
            val tp = pred.count(p => gtSet.contains((p._1, p._2)))
            BslOutcome(BslConfig(n, scheme, measure, t), PRF(tp, pred.size, gtSet.size))
          }
        }
      }
    } yield outcome
  }

  def run(spark: SparkSession, w: Workload, cfg: KBConfig): Map[String, Any] = {
    val sc = spark.sparkContext
    val tr = new Tracer(sc)
    val attempt = new Attempts(spark)

    tr.attach()
    val pair = tr.span("kbgen")(KBGen.generate(spark, cfg))
    tr.addRows("kbgen", pair.kb1.count() + pair.kb2.count())
    val gt = Main.groundTruth(pair)

    var retainedMb = Double.NaN
    val traced = attempt("traced resolve") {
      val m = tr.span("resolve") {
        val res = tr.span("resolve.call")(MinoanER.resolve(spark, pair.kb1, pair.kb2))
        MatchSet.of(tr.span("resolve.collect")(res.matches.collect()))
      }
      tr.addRows("resolve.collect", m.pairs.size.toLong)
      retainedMb = Main.retainedCacheMb(spark)
      (m, Main.check(w, m, gt))
    }

    val replayed = attempt("replay") {
      val (m, ratios) = tr.span("replay")(replay(tr, pair))
      val fidelity = traced.filter(_.digest != m.digest).map(t =>
        s"H4 output (${m.pairs.size} matches) differs from the traced resolve's (${t.pairs.size} matches)")
      ((m, ratios), fidelity.toSeq)
    }

    val bsl = attempt("BSL sweep") {
      val (best, all) = tr.span("bsl.sweep")(BslGrid.sweep(spark, pair))
      ((best, all), BslGrid.check(w, best, all))
    }
    attempt("BSL replay") {
      val outcomes = tr.span("bsl.replay")(bslReplay(tr, pair))
      val fidelity = bsl.filter(_._2 != outcomes).map { case (best, all) =>
        val replayBest = outcomes.maxByOption(o => (o.prf.f1, -o.cfg.threshold))
        s"replayed outcomes differ from the sweep's (${outcomes.size} vs ${all.size}; best $replayBest vs $best)"
      }
      ((), fidelity.toSeq)
    }
    tr.drain()

    val cores = sc.defaultParallelism
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    def spanMetrics(name: String, fields: Seq[String]): Unit = {
      val c = tr.listener.counts(name)
      val wall = tr.wallS(name)
      val all = Map[String, (Double, String)](
        "wall_s" -> (wall, "s"),
        "driver_cpu_s" -> (tr.cpuS(name), "s"),
        "task_s" -> (c.taskMs / 1e3, "s"),
        "jobs" -> (c.jobs.toDouble, "count"),
        "tasks" -> (c.tasks.toDouble, "count"),
        "shuffle_mb" -> (c.shuffleBytes / 1e6, "MB"),
        "rows_out" -> (tr.rowsOut(name).toDouble, "count"),
        "core_idle_frac" -> (1 - c.taskMs / 1e3 / (wall * cores), "fraction"),
        "empty_task_frac" -> (if (c.tasks > 0) c.emptyTasks.toDouble / c.tasks else 0.0, "fraction"))
      fields.foreach(f => metrics(s"$name.$f") = all(f))
    }
    val spanFields = Seq("wall_s", "driver_cpu_s", "task_s", "jobs", "tasks", "shuffle_mb", "rows_out")
    val resolveExtra = Seq("core_idle_frac", "empty_task_frac")
    val bslFields = Seq("wall_s", "driver_cpu_s", "task_s", "jobs", "tasks")
    spanMetrics("kbgen", Seq("wall_s", "driver_cpu_s", "rows_out"))
    ReplaySpans.foreach(spanMetrics(_, spanFields))
    spanMetrics("resolve.call", spanFields.filterNot(_ == "rows_out") ++ resolveExtra)
    spanMetrics("resolve.collect", spanFields ++ resolveExtra)
    // UMC runs on the driver alone: it has no jobs or tasks to count.
    spanMetrics("bsl.candidates", bslFields :+ "rows_out")
    spanMetrics("bsl.ngrams", bslFields)
    spanMetrics("bsl.weighting", bslFields)
    spanMetrics("bsl.pairsims", bslFields :+ "rows_out")
    spanMetrics("bsl.umc", Seq("wall_s", "driver_cpu_s"))
    replayed.foreach { case (_, ratios) => ratios.foreach { case (k, v) => metrics(k) = (v, "fraction") } }
    val tracedS = tr.wallS("resolve.call") + tr.wallS("resolve.collect")
    metrics("resolve.replay_gap_s") = (tracedS - ReplaySpans.map(tr.wallS).sum, "s")
    metrics("trace.overhead_s") = (tr.overheadS, "s")

    attempt.result ++ Map(
      "metrics" -> Main.metricsJson(metrics),
      "traced_resolve_s" -> tracedS,
      "traced_bsl_sweep_s" -> tr.wallS("bsl.sweep"),
      "bsl_best" -> bsl.map(_._1.toString),
      "failed_tasks" -> Seq("resolve.call", "resolve.collect").map(n => n -> tr.listener.counts(n).failedTasks).toMap,
      "retained_cache_mb" -> retainedMb,
      "untagged_jobs" -> tr.listener.counts(GroupListener.Untagged).jobs,
      "matches" -> traced.map(_.pairs.size),
      "match_digest" -> traced.map(_.digest),
      "spans" -> tr.allSpans.map(s => Map(
        "name" -> s.name, "parent" -> s.parent, "start_s" -> s.startS, "end_s" -> s.endS)))
  }
}
