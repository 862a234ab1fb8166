package repro.baseline

import org.apache.spark.sql.execution.UnionExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import repro.SparkSpec

class BslSimilaritiesSpec extends SparkSpec with AdaptiveSparkPlanHelper {
  import spark.implicits._

  private def vec(rows: (Long, String, Double)*) =
    rows.toDF("eid", "gram", "tf").withColumn("w", $"tf")

  private def allPairs = Seq((0L, 9L)).toDF("e1", "e2")

  private def simsOf(v1: org.apache.spark.sql.DataFrame,
                     v2: org.apache.spark.sql.DataFrame): Map[String, Double] = {
    val r = BslSimilarities.pairSims(v1, v2, allPairs).collect()
    assert(r.length == 1)
    BslSimilarities.all.zipWithIndex.map { case (m, i) => m -> r.head.getDouble(2 + i) }.toMap
  }

  test("identical unit vectors have all sims = 1") {
    val v1 = vec((0L, "a", 1.0), (0L, "b", 1.0))
    val v2 = vec((9L, "a", 1.0), (9L, "b", 1.0))
    val s = simsOf(v1, v2)
    BslSimilarities.all.foreach(m => assert(math.abs(s(m) - 1.0) < 1e-12, m))
  }

  test("cosine of orthogonal vectors is absent (no common gram row)") {
    val v1 = vec((0L, "a", 1.0))
    val v2 = vec((9L, "b", 1.0))
    assert(BslSimilarities.pairSims(v1, v2, allPairs).count() == 0)
  }

  test("jaccard counts set overlap") {
    val v1 = vec((0L, "a", 5.0), (0L, "b", 1.0))
    val v2 = vec((9L, "a", 1.0), (9L, "c", 1.0), (9L, "d", 1.0))
    val s = simsOf(v1, v2)
    assert(math.abs(s(BslSimilarities.Jaccard) - 1.0 / 4) < 1e-12)
  }

  test("generalized jaccard uses min/max weight sums") {
    val v1 = vec((0L, "a", 2.0), (0L, "b", 1.0))
    val v2 = vec((9L, "a", 1.0))
    // min over union = 1 (a); max over union = 2 (a) + 1 (b) = 3
    val s = simsOf(v1, v2)
    assert(math.abs(s(BslSimilarities.GenJaccard) - 1.0 / 3) < 1e-12)
  }

  test("sigma is the weighted overlap fraction") {
    val v1 = vec((0L, "a", 2.0), (0L, "b", 2.0))
    val v2 = vec((9L, "a", 1.0), (9L, "c", 3.0))
    // common: (2+1)=3; total: 4+4=8
    val s = simsOf(v1, v2)
    assert(math.abs(s(BslSimilarities.Sigma) - 3.0 / 8) < 1e-12)
  }

  test("cosine matches the closed form") {
    val v1 = vec((0L, "a", 3.0), (0L, "b", 4.0))
    val v2 = vec((9L, "a", 4.0), (9L, "b", 3.0))
    val s = simsOf(v1, v2)
    assert(math.abs(s(BslSimilarities.Cosine) - 24.0 / 25.0) < 1e-12)
  }

  test("pairs not in the candidate set are skipped") {
    val v1 = vec((0L, "a", 1.0), (1L, "a", 1.0))
    val v2 = vec((9L, "a", 1.0))
    val sims = BslSimilarities.pairSims(v1, v2, Seq((0L, 9L)).toDF("e1", "e2"))
    assert(sims.select("e1").as[Long].collect().toSet == Set(0L))
  }

  test("dfCap drops hyper-frequent grams from the evidence") {
    val v1 = vec((0L to 20L).map(i => (i, "stop", 1.0)) :+ ((0L, "rare", 1.0)): _*)
    val v2 = vec(Seq((9L, "stop", 1.0), (9L, "rare", 1.0)): _*)
    val sims = BslSimilarities.pairSims(v1, v2, allPairs, dfCap = 10)
    val r = sims.collect()
    assert(r.length == 1)
    // only "rare" survives -> jaccard = 1/1 over capped vectors
    assert(math.abs(r.head.getDouble(3) - 1.0) < 1e-12)
  }

  test("dfCap drops a gram over the cap on one side and absent on the other from that side's norms") {
    val v1 = vec((0L to 2L).map(i => (i, "hot", 1.0)) :+ ((0L, "a", 1.0)): _*)
    val v2 = vec((9L, "a", 1.0))
    // With "hot" in e1's vector, jaccard would be 1/2 and cosine 1/sqrt(2).
    val s = BslSimilarities.pairSims(v1, v2, allPairs, dfCap = 2).collect()
    assert(s.length == 1)
    (2 to 5).foreach(i => assert(math.abs(s.head.getDouble(i) - 1.0) < 1e-12, BslSimilarities.all(i - 2)))
  }

  test("dfCap keeps a gram exactly at the cap") {
    val v1 = vec((0L, "g", 1.0), (1L, "g", 1.0))
    val v2 = vec((9L, "g", 1.0), (8L, "g", 1.0))
    assert(BslSimilarities.pairSims(v1, v2, allPairs, dfCap = 2).count() == 1)
    assert(BslSimilarities.pairSims(v1, v2, allPairs, dfCap = 1).count() == 0)
  }

  test("an entity whose grams are all over the cap yields no row") {
    val v1 = vec((0L to 2L).map(i => (i, "hot", 1.0)): _*)
    val v2 = vec((9L, "hot", 1.0), (9L, "a", 1.0))
    assert(BslSimilarities.pairSims(v1, v2, allPairs, dfCap = 2).count() == 0)
    assert(BslSimilarities.pairSims(v1, v2, allPairs, dfCap = 3).count() == 1)
  }

  test("all similarity measures stay within [0,1] on random vectors") {
    val rnd = new scala.util.Random(4242)
    for (_ <- 1 to 10) {
      val n1 = 1 + rnd.nextInt(6)
      val n2 = 1 + rnd.nextInt(6)
      val v1 = vec((0 until n1).map(i => (0L, s"g$i", (1 + rnd.nextInt(5)).toDouble)): _*)
      val v2 = vec((0 until n2).map(i => (9L, s"g${rnd.nextInt(8)}x$i", (1 + rnd.nextInt(5)).toDouble))
        .distinctBy(_._2) ++ Seq((9L, "g0", 1.0)): _*)
      BslSimilarities.pairSims(v1, v2, allPairs).collect().foreach { r =>
        (2 to 5).foreach { i =>
          val s = r.getDouble(i)
          assert(s >= -1e-12 && s <= 1 + 1e-12)
        }
      }
    }
  }

  test("a measure whose denominator is 0 scores 0") {
    // TF-IDF weighs a gram every entity holds 0: e0's weights are all 0, so
    // its norm and weight sum are 0, and with e9's also 0 so are the
    // generalized Jaccard and sigma denominators. Jaccard counts grams.
    val s = simsOf(vec((0L, "a", 0.0)), vec((9L, "a", 0.0)))
    assert(s == Map(BslSimilarities.Cosine -> 0.0, BslSimilarities.Jaccard -> 1.0,
                    BslSimilarities.GenJaccard -> 0.0, BslSimilarities.Sigma -> 0.0))
    val one = simsOf(vec((0L, "a", 0.0)), vec((9L, "a", 2.0)))
    assert(one == Map(BslSimilarities.Cosine -> 0.0, BslSimilarities.Jaccard -> 1.0,
                      BslSimilarities.GenJaccard -> 0.0, BslSimilarities.Sigma -> 1.0))
  }

  test("over cached vectors, the union of both sides is shuffled on gram once") {
    val v1 = vec((0L, "a", 1.0), (0L, "b", 2.0), (1L, "b", 1.0)).cache()
    val v2 = vec((9L, "a", 1.0), (9L, "b", 1.0), (8L, "c", 1.0)).cache()
    try {
      val sims = BslSimilarities.pairSims(v1, v2, Seq((0L, 9L), (1L, 9L)).toDF("e1", "e2"))
      assert(sims.collect().length == 2)
      // A reused exchange is a leaf of the plan, so it is not counted here.
      val unionShuffles = collect(sims.queryExecution.executedPlan) {
        case e: ShuffleExchangeExec if e.child.isInstanceOf[UnionExec] => e
      }
      assert(unionShuffles.size == 1, sims.queryExecution.executedPlan)
    } finally Seq(v1, v2).foreach(_.unpersist(blocking = true))
  }
}
