package repro.baseline

import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.kb.{Datasets, KBGen}

class BSLSpec extends SparkSpec {

  private lazy val pair = KBGen.generate(spark, Datasets.testScale(Datasets.restaurant))
  private lazy val sweep = BSL.sweep(
    spark, pair.kb1, pair.kb2, pair.groundTruth,
    ns = Seq(1), weightings = Seq(Weighting.TFIDF),
    thresholds = Seq(0.0, 0.2, 0.4))

  test("sweep covers the full configuration grid") {
    val (_, all) = sweep
    assert(all.size == 1 * 1 * 4 * 3) // n x weighting x measure x threshold
  }

  test("the best configuration maximizes F1") {
    val (best, all) = sweep
    assert(best.prf.f1 == all.map(_.prf.f1).max)
  }

  test("on the clean Restaurant-like dataset BSL reaches high F1") {
    // Paper: BSL achieves 100% F1 on Restaurant (strongly similar matches).
    val (best, _) = sweep
    assert(best.prf.f1 > 0.9, best)
  }

  test("raising the threshold never raises recall") {
    val (_, all) = sweep
    for (grp <- all.groupBy(o => (o.cfg.n, o.cfg.weighting, o.cfg.measure)).values) {
      val byT = grp.sortBy(_.cfg.threshold)
      val recalls = byT.map(_.prf.recall)
      assert(recalls.zip(recalls.tail).forall { case (a, b) => a >= b - 1e-12 })
    }
  }

  test("candidates cover the ground truth (blocking recall)") {
    val cands = BSL.candidates(pair.kb1, pair.kb2)
    val found = pair.groundTruth.join(cands, Seq("e1", "e2"), "left_semi").count()
    assert(found.toDouble / pair.groundTruth.count() > 0.9)
    cands.unpersist(blocking = true)
  }

  test("candidates leave exactly one cached RDD, their own") {
    spark.catalog.clearCache()
    val cands = BSL.candidates(pair.kb1, pair.kb2)
    val cached = spark.sparkContext.getRDDStorageInfo
    assert(cached.length == 1, cached.map(_.name).mkString("; "))
    assert(cands.storageLevel != StorageLevel.NONE)
    cands.unpersist(blocking = true)
    assert(spark.sparkContext.getRDDStorageInfo.isEmpty)
  }

  test("outcomes carry their configuration") {
    val (_, all) = sweep
    assert(all.forall(o => o.cfg.n == 1 && o.cfg.weighting == Weighting.TFIDF))
  }

  test("the sweep releases every frame it caches") {
    spark.catalog.clearCache()
    BSL.sweep(spark, pair.kb1, pair.kb2, pair.groundTruth,
              ns = Seq(1, 2), weightings = Seq(Weighting.TF), thresholds = Seq(0.5))
    val left = spark.sparkContext.getRDDStorageInfo
    assert(left.isEmpty, left.map(_.name).mkString("; "))
  }
}
