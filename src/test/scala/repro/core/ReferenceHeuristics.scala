package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** H2, H3 and H4 as separate window passes over the similarity tables, one
  * ranking per list and side. It is the reference the candidate-graph
  * implementation in [[Heuristics]] is checked against.
  */
object ReferenceHeuristics {

  private def excludeMatched(sims: DataFrame,
                             matchedE1: DataFrame,
                             matchedE2: DataFrame): DataFrame =
    sims.join(matchedE1.select("e1").distinct(), Seq("e1"), "left_anti")
        .join(matchedE2.select("e2").distinct(), Seq("e2"), "left_anti")

  def h2(valueSims: DataFrame, matchedE1: DataFrame, matchedE2: DataFrame): DataFrame = {
    val cands = excludeMatched(valueSims, matchedE1, matchedE2)
    val w = Window.partitionBy("e1").orderBy(desc("vsim"), asc("e2"))
    cands.withColumn("rn", row_number().over(w))
      .where(col("rn") === 1 && col("vsim") >= 1.0)
      .select("e1", "e2")
  }

  private def rankScores(sims: DataFrame, simCol: String, K: Int, outCol: String): DataFrame = {
    val w = Window.partitionBy("e1").orderBy(desc(simCol), asc("e2"))
    sims.withColumn("pos", row_number().over(w))
      .where(col("pos") <= K)
      .withColumn("lsize", count(lit(1)).over(Window.partitionBy("e1")))
      .select(
        col("e1"), col("e2"),
        ((col("lsize") - col("pos") + 1).cast("double") / col("lsize")).as(outCol))
  }

  def h3(valueSims: DataFrame,
         neighborSims: DataFrame,
         matchedE1: DataFrame,
         matchedE2: DataFrame,
         K: Int,
         theta: Double): DataFrame = {
    val v = excludeMatched(valueSims, matchedE1, matchedE2)
    val n = excludeMatched(neighborSims.where(col("nsim") > 0), matchedE1, matchedE2)
    val sv = rankScores(v, "vsim", K, "sv")
    val sn = rankScores(n, "nsim", K, "sn")
    val agg = sv.join(sn, Seq("e1", "e2"), "outer")
      .na.fill(0.0, Seq("sv", "sn"))
      .withColumn("score", lit(theta) * col("sv") + lit(1.0 - theta) * col("sn"))
    val w = Window.partitionBy("e1").orderBy(desc("score"), asc("e2"))
    agg.withColumn("rn", row_number().over(w))
      .where(col("rn") === 1)
      .select("e1", "e2")
  }

  private def topKPairs(sims: DataFrame, simCol: String, partCol: String, K: Int): DataFrame = {
    val other = if (partCol == "e1") "e2" else "e1"
    val w = Window.partitionBy(partCol).orderBy(desc(simCol), asc(other))
    sims.withColumn("rn", row_number().over(w))
      .where(col("rn") <= K)
      .select("e1", "e2")
  }

  def h4(candidates: DataFrame,
         valueSims: DataFrame,
         neighborSims: DataFrame,
         K: Int): DataFrame = {
    val ns = neighborSims.where(col("nsim") > 0)
    val from1 = topKPairs(valueSims, "vsim", "e1", K)
      .union(topKPairs(ns, "nsim", "e1", K)).distinct()
    val from2 = topKPairs(valueSims, "vsim", "e2", K)
      .union(topKPairs(ns, "nsim", "e2", K)).distinct()
    candidates
      .join(from1, Seq("e1", "e2"), "left_semi")
      .join(from2, Seq("e1", "e2"), "left_semi")
  }
}
