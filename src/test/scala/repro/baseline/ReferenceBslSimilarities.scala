package repro.baseline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.baseline.BslSimilarities.{Cosine, GenJaccard, Jaccard, Sigma}

/** The BSL per-pair similarities as separate joins: a full outer join of the
  * per-side gram counts for the cap, a join of each side with the kept grams,
  * per-entity aggregates joined back onto the pair aggregates. It is the
  * reference that the one-plan [[BslSimilarities.pairSims]] is checked against.
  */
object ReferenceBslSimilarities {

  def pairSims(v1: DataFrame, v2: DataFrame, candidates: DataFrame,
               dfCap: Long = 1000): DataFrame = {
    // A gram over the cap on either side is a stop-word equivalent: drop it
    // globally so both vectors see the same vocabulary.
    val c1 = v1.groupBy("gram").agg(count(lit(1)).as("c1"))
    val c2 = v2.groupBy("gram").agg(count(lit(1)).as("c2"))
    val kept = c1.join(c2, Seq("gram"), "outer")
      .where(coalesce(col("c1"), lit(0L)) <= dfCap && coalesce(col("c2"), lit(0L)) <= dfCap)
      .select("gram")
    val k1 = v1.join(kept, "gram")
    val k2 = v2.join(kept, "gram")

    val s1 = k1.groupBy("eid").agg(
      sum("w").as("sumw1"), sum(col("w") * col("w")).as("sq1"), count(lit(1)).as("sz1"))
      .withColumnRenamed("eid", "e1")
    val s2 = k2.groupBy("eid").agg(
      sum("w").as("sumw2"), sum(col("w") * col("w")).as("sq2"), count(lit(1)).as("sz2"))
      .withColumnRenamed("eid", "e2")

    val common = k1.select(col("eid").as("e1"), col("gram"), col("w").as("w1"))
      .join(k2.select(col("eid").as("e2"), col("gram"), col("w").as("w2")), "gram")
      .join(candidates.select("e1", "e2"), Seq("e1", "e2"), "left_semi")
      .groupBy("e1", "e2")
      .agg(
        sum(col("w1") * col("w2")).as("dot"),
        sum(least(col("w1"), col("w2"))).as("minsum"),
        sum(col("w1") + col("w2")).as("commonsum"),
        count(lit(1)).as("inter"))

    common.join(s1, "e1").join(s2, "e2").select(
      col("e1"), col("e2"),
      (col("dot") / sqrt(col("sq1") * col("sq2"))).as(Cosine),
      (col("inter").cast("double") / (col("sz1") + col("sz2") - col("inter"))).as(Jaccard),
      (col("minsum") / (col("sumw1") + col("sumw2") - col("minsum"))).as(GenJaccard),
      (col("commonsum") / (col("sumw1") + col("sumw2"))).as(Sigma))
  }
}
