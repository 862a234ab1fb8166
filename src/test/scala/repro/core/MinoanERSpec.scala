package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import repro.SparkSpec
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._

/** End-to-end pipeline on a hand-crafted KB pair where every heuristic has a
  * designated winner:
  *
  *  - pair (0,0): shared unique name "zeus king"           -> H1
  *  - pair (1,1): two tokens unique to the pair, vsim = 2  -> H2
  *  - pair (2,2): weak value sim (0.43) with a stronger decoy (2,3),
  *    rescued by its matched neighbor (1,1)                -> H3
  *  - entity 3 on each side is a non-match sharing the "mm"/"nn" noise.
  */
class MinoanERSpec extends SparkSpec {
  import spark.implicits._

  private def kb1 = KB.fromRows(spark, Seq(
    KB.TripleRow(0, "n1", Some("Zeus King"), None),
    KB.TripleRow(1, "n1", Some("hera1"), None),
    KB.TripleRow(2, "n1", Some("ares1"), None),
    KB.TripleRow(3, "n1", Some("apollo1"), None),
    KB.TripleRow(0, "v1", Some("k1a"), None),
    KB.TripleRow(1, "v1", Some("str1a str1b xtra1"), None),
    KB.TripleRow(2, "v1", Some("mm nn c1x"), None),
    KB.TripleRow(3, "v1", Some("mm nn c1y"), None),
    KB.TripleRow(2, "r1", None, Some(1L)),
    KB.TripleRow(0, "r1", None, Some(1L))))

  private def kb2 = KB.fromRows(spark, Seq(
    KB.TripleRow(0, "n2", Some("zeus king"), None),
    KB.TripleRow(1, "n2", Some("hera2"), None),
    KB.TripleRow(2, "n2", Some("ares2"), None),
    KB.TripleRow(3, "n2", Some("apollo2"), None),
    KB.TripleRow(0, "v2", Some("k2a"), None),
    KB.TripleRow(1, "v2", Some("str1a str1b xtra2 nn"), None),
    KB.TripleRow(2, "v2", Some("mm c2x"), None),
    KB.TripleRow(3, "v2", Some("mm nn c2y"), None),
    KB.TripleRow(2, "r2", None, Some(1L)),
    KB.TripleRow(0, "r2", None, Some(1L))))

  // purgeSmooth=100: the two-level comparison histogram of this tiny KB would
  // otherwise purge the mm/nn blocks that H3 needs (purging is unit-tested in
  // TokenBlockingSpec on realistic histograms).
  private lazy val res = MinoanER.resolve(spark, kb1, kb2, MinoanERParams(purgeSmooth = 100.0))
  private lazy val byHeuristic: Map[String, Set[(Long, Long)]] =
    res.matches.as[(Long, Long, String)].collect()
      .groupBy(_._3).map { case (h, rows) => h -> rows.map(r => (r._1, r._2)).toSet }

  test("both literal attributes qualify as name attributes (k=2)") {
    assert(res.blocking.nameAttrs1.toSet == Set("n1", "v1"))
    assert(res.blocking.nameAttrs2.toSet == Set("n2", "v2"))
  }

  test("the single relation is the top relation") {
    assert(res.blocking.topRels1 == Seq("r1"))
    assert(res.blocking.topRels2 == Seq("r2"))
  }

  test("H1 finds exactly the shared-unique-name pair") {
    assert(byHeuristic.getOrElse("H1", Set.empty) == Set((0L, 0L)))
  }

  test("H2 finds exactly the strongly similar pair") {
    assert(byHeuristic.getOrElse("H2", Set.empty) == Set((1L, 1L)))
  }

  test("H3 rescues the weak pair through its matched neighbor") {
    assert(byHeuristic.getOrElse("H3", Set.empty).contains((2L, 2L)))
  }

  test("H3 does not pick the value-similarity decoy") {
    assert(!byHeuristic.getOrElse("H3", Set.empty).contains((2L, 3L)))
  }

  test("valueSim of the strong pair is exactly 2") {
    val vs = res.valueSims.where(col("e1") === 1 && col("e2") === 1)
      .select("vsim").as[Double].collect()
    assert(vs.length == 1 && math.abs(vs.head - 2.0) < 1e-9)
  }

  test("valueSim of the weak pair is below 1 but positive") {
    val vs = res.valueSims.where(col("e1") === 2 && col("e2") === 2)
      .select("vsim").as[Double].collect()
    assert(vs.length == 1 && vs.head > 0 && vs.head < 1)
  }

  test("the decoy pair out-scores the true pair on values alone") {
    val m = res.valueSims.where(col("e1") === 2)
      .as[(Long, Long, Double)].collect().map(r => r._2 -> r._3).toMap
    assert(m(3L) > m(2L))
  }

  test("neighborSim of the weak pair equals valueSim of its neighbor pair") {
    val ns = res.neighborSims.where(col("e1") === 2 && col("e2") === 2)
      .select("nsim").as[Double].collect()
    val nbrVs = res.valueSims.where(col("e1") === 1 && col("e2") === 1)
      .select("vsim").as[Double].collect()
    assert(ns.length == 1 && math.abs(ns.head - nbrVs.head) < 1e-9)
  }

  test("the full pipeline resolves the ground truth perfectly (paper-style eval)") {
    val gt = Set((0L, 0L), (1L, 1L), (2L, 2L))
    val prf = Evaluation.evaluateOnGtE1(res.matches.select("e1", "e2").as[(Long, Long)].collect(), gt)
    assert(prf.precision == 1.0 && prf.recall == 1.0)
  }

  test("each KB1 entity is matched at most once per heuristic path") {
    val counts = res.matches.groupBy("e1").count().select("count").as[Long].collect()
    assert(counts.forall(_ <= 1))
  }

  test("token blocks were purged no larger than the originals") {
    assert(res.blocking.tokenBlocks.count() <= res.blocking.tokenBlocksAll.count())
  }

  test("name blocks exist for the shared name") {
    val names = res.blocking.nameBlocks.select("name").as[String].collect().toSet
    assert(names.contains("zeus king"))
  }

  private val coalesceConf = MinoanER.CoalesceCacheConf

  for (caller <- Seq(None, Some("true"), Some("false")))
    test(s"the cache helper restores the caller's ${caller.getOrElse("unset")} conf") {
      withConf(coalesceConf, caller) {
        assert(MinoanER.coalescingCaches(spark)(setting(coalesceConf)) == Some("true"))
        assert(setting(coalesceConf) == caller)
      }
    }

  test("the cache helper restores the caller's conf when its body throws") {
    withConf(coalesceConf, None) {
      intercept[IllegalStateException](MinoanER.coalescingCaches(spark)(throw new IllegalStateException))
      assert(setting(coalesceConf).isEmpty)
    }
  }

  test("resolve leaves only coalesced caches and the session conf as it was") {
    withConf("spark.sql.shuffle.partitions", Some("64")) {
      spark.catalog.clearCache()
      val before = spark.conf.getAll
      val r = MinoanER.resolve(spark, kb1, kb2, MinoanERParams(purgeSmooth = 100.0))
      assert(spark.conf.getAll == before)
      val cached = spark.sparkContext.getRDDStorageInfo
      assert(cached.nonEmpty)
      assert(cached.forall(_.numPartitions < 64), cached.map(i => s"${i.name}: ${i.numPartitions}").mkString("; "))
      r.unpersist()
    }
  }

  test("unpersist releases every frame resolve cached") {
    spark.catalog.clearCache()
    MinoanER.resolve(spark, kb1, kb2, MinoanERParams(purgeSmooth = 100.0)).unpersist()
    val left = spark.sparkContext.getRDDStorageInfo
    assert(left.isEmpty, left.map(_.name).mkString("; "))
  }

  test("a Blocking releases every frame it cached") {
    spark.catalog.clearCache()
    val blocking = new Blocking(kb1, kb2, MinoanERParams(purgeSmooth = 100.0))
    assert(blocking.candidatePairs.count() > 0)
    blocking.unpersist()
    val left = spark.sparkContext.getRDDStorageInfo
    assert(left.isEmpty, left.map(_.name).mkString("; "))
  }

  test("resolve returns with only matches and valueSims cached") {
    spark.catalog.clearCache()
    val r = MinoanER.resolve(spark, kb1, kb2, MinoanERParams(purgeSmooth = 100.0))
    val cached = spark.sparkContext.getRDDStorageInfo
    assert(cached.length == 2, s"${cached.length} cached: ${cached.map(_.name.take(80)).mkString("; ")}")
    assert(Seq(r.matches, r.valueSims).forall(_.storageLevel != StorageLevel.NONE))
    val released = Seq(r.neighborSims, r.blocking.tokenBlocks, r.blocking.tokenBlocksAll)
    assert(released.forall(_.storageLevel == StorageLevel.NONE))
    r.unpersist()
  }

  test("matches and both similarity tables stay usable after unpersist") {
    spark.catalog.clearCache()
    val r = MinoanER.resolve(spark, kb1, kb2, MinoanERParams(purgeSmooth = 100.0))
    def contents = Seq(r.matches, r.valueSims, r.neighborSims).map(_.collect().toSet)
    val before = contents
    assert(before.forall(_.nonEmpty))
    r.unpersist()
    assert(contents == before)
  }

  test("every job of a resolve call carries the caller's job group") {
    // A marker job of its own group comes before the first call and after
    // each call. The listener sees job starts in submission order, so the
    // jobs between two markers are one call's. A branch thread that kept the
    // first call's group would tag the second call's jobs with it.
    val sc = spark.sparkContext
    val groups = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groups.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("none"))
    }
    def marker(g: String): Unit = {
      sc.setJobGroup(g, g)
      try sc.parallelize(Seq(1)).count()
      finally sc.clearJobGroup()
    }
    sc.addSparkListener(listener)
    try {
      marker("start")
      for (g <- Seq("first", "second")) {
        spark.catalog.clearCache()
        sc.setJobGroup(g, g)
        try MinoanER.resolve(spark, kb1, kb2, MinoanERParams(purgeSmooth = 100.0)).unpersist()
        finally sc.clearJobGroup()
        marker(s"$g-end")
      }
      eventually(timeout(60.seconds)) { assert(groups.contains("second-end")) }
      def between(from: String, to: String) =
        groups.asScala.toSeq.dropWhile(_ != from).drop(1).takeWhile(_ != to)
      val first = between("start", "first-end")
      val second = between("first-end", "second-end")
      assert(first.nonEmpty && first.forall(_ == "first"), first.distinct)
      assert(second.nonEmpty && second.forall(_ == "second"), second.distinct)
    } finally sc.removeSparkListener(listener)
  }

  // Output contract: an e1 matched by H2 or H3 has one match, while H1 may
  // match an e1 once per unique name it shares; degenerate KB pairs resolve
  // without throwing.

  private def literals(rows: (Long, String, String)*) =
    KB.fromRows(spark, rows.map { case (e, p, v) => KB.TripleRow(e, p, Some(v), None) })

  /** Every block is 1 x 1, and there are no relation triples: e1 0 shares
    * one unique name with e2 0 and another with e2 1.
    */
  private lazy val twoNames = MinoanER.resolve(spark,
    literals((0, "n1", "alpha beta"), (0, "v1", "gamma delta"), (1, "n1", "x1"), (1, "v1", "y1")),
    literals((0, "n2", "alpha beta"), (0, "v2", "q0"), (1, "n2", "r1"), (1, "v2", "gamma delta")))

  private def matchSet(r: MinoanERResult): Set[(Long, Long, String)] =
    r.matches.as[(Long, Long, String)].collect().toSet

  test("H1 matches an e1 once per unique shared name, and H4 keeps both") {
    assert(matchSet(twoNames) == Set((0L, 0L, "H1"), (0L, 1L, "H1")))
  }

  test("without relation triples there are no neighbor sims, and H1 still matches") {
    assert(twoNames.neighborSims.isEmpty)
    assert(matchSet(twoNames).nonEmpty)
  }

  test("a one-level purge histogram keeps its blocks") {
    val all = twoNames.blocking.tokenBlocksAll
    assert(all.select("comparisons").distinct().count() == 1)
    assert(twoNames.blocking.tokenBlocks.count() == all.count() && !all.isEmpty)
  }

  test("an empty KB pair resolves to no matches") {
    val empty = KB.fromRows(spark, Seq.empty)
    val r = MinoanER.resolve(spark, empty, empty)
    assert(r.matches.isEmpty)
    r.unpersist()
  }

  test("KBs that share no token resolve to no matches") {
    val r = MinoanER.resolve(spark,
      literals((0, "n1", "a1"), (1, "n1", "b1")),
      literals((0, "n2", "c2"), (1, "n2", "d2")))
    assert(r.matches.isEmpty)
    r.unpersist()
  }
}
