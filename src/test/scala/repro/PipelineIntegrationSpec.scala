package repro

import repro.baseline.{ReferenceSigmaLite, SigmaLite}
import repro.core.{Evaluation, MinoanER, MinoanERResult}
import repro.kb.{Datasets, KBGen}
import org.apache.spark.storage.StorageLevel

/** End-to-end MinoanER over every dataset preset at unit-test scale.
  *
  * Bounds are looser than the bench ones: at 1/8 scale the name pools
  * shrink quadratically in combination space, so H1 contributes less and
  * more weight falls on H3 (especially for YAGO-IMDb, whose tiny name pool
  * collides heavily at this scale).
  */
class PipelineIntegrationSpec extends SparkSpec {

  private val floors = Map(
    "Restaurant" -> 0.85,
    "Rexa-DBLP" -> 0.70,
    "BBCmusic-DBpedia" -> 0.50,
    "YAGO-IMDb" -> 0.30)

  private val Partitions = "spark.sql.shuffle.partitions"

  private def matchSet(r: MinoanERResult): Set[(Long, Long, String)] =
    r.matches.collect().map(m => (m.getLong(0), m.getLong(1), m.getString(2))).toSet

  for (cfg <- Datasets.all) {
    lazy val pair = KBGen.generate(spark, Datasets.testScale(cfg))
    lazy val res  = withConf(Partitions, Some("64"))(MinoanER.resolve(spark, pair.kb1, pair.kb2))
    lazy val prf  = Evaluation.evaluateOnGtE1(matchSet(res).map(m => (m._1, m._2)),
      pair.groundTruth.collect().map(r => (r.getAs[Long]("e1"), r.getAs[Long]("e2"))).toSet)

    test(s"${cfg.name} @ test scale: F1 above its floor") {
      assert(prf.f1 > floors(cfg.name), s"${cfg.name}: $prf")
    }

    test(s"${cfg.name} @ test scale: every ground-truth KB1 entity gets a candidate match") {
      // H3 matches every unmatched KB1 entity; only H4 may drop some, so
      // coverage of GT entities should be near-total.
      val covered = res.matches
        .join(pair.groundTruth.select("e1").distinct(), Seq("e1"), "left_semi")
        .select("e1").distinct().count()
      assert(covered.toDouble / pair.groundTruth.count() > 0.8, cfg.name)
    }

    test(s"${cfg.name} @ test scale: matches carry a valid heuristic tag") {
      val tags = res.matches.select("heuristic").distinct()
        .collect().map(_.getString(0)).toSet
      assert(tags.subsetOf(Set("H1", "H2", "H3")), tags)
    }

    test(s"${cfg.name} @ test scale: SigmaLite on resolve's evidence equals the reference") {
      val reference = withConf(Partitions, Some("64"))(ReferenceSigmaLite.resolve(pair.kb1, pair.kb2))
      assert(reference.nonEmpty)
      assert(SigmaLite.resolve(pair.kb1, pair.kb2, res) == reference)
    }

    // H2-H4 read leaves of their cached inputs, so the plan of `matches`
    // does not nest the plans of every cache before it. Spark prints that
    // plan on every execution event, and each level of nested caches doubles it.
    if (cfg == Datasets.rexaDblp)
      test(s"${cfg.name} @ test scale: the plan of matches holds at most 5 cached relations") {
        val plan = res.matches.queryExecution.toString
        val relations = "InMemoryRelation".r.findAllMatchIn(plan).size
        assert(relations <= 5, s"$relations InMemoryRelations in a plan of ${plan.length} characters")
      }

    // Cached frames are partitioned as the data needs, so the match set
    // must not depend on how many shuffle partitions there are. The second
    // resolve builds the same logical plans, so the first one's caches are
    // released before it; otherwise it would read them back.
    if (cfg == Datasets.rexaDblp || cfg == Datasets.yagoImdb)
      test(s"${cfg.name} @ test scale: the same matches with 1 and 64 shuffle partitions") {
        val expected = matchSet(res)
        res.unpersist()
        val frames = Seq(res.matches, res.valueSims, res.neighborSims,
                         res.blocking.tokenBlocks, res.blocking.tokenBlocksAll)
        assert(frames.forall(_.storageLevel == StorageLevel.NONE))
        // Earlier presets' results are still cached, so the second resolve
        // must leave exactly the cached RDDs it found.
        def cachedIds = spark.sparkContext.getRDDStorageInfo.map(_.id).toSet
        val before = cachedIds
        val one = withConf(Partitions, Some("1"))(MinoanER.resolve(spark, pair.kb1, pair.kb2))
        assert(matchSet(one) == expected)
        one.unpersist()
        assert(cachedIds == before, s"left cached: ${cachedIds -- before}, released: ${before -- cachedIds}")
      }
  }
}
