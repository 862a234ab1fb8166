package repro.baseline

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The four similarity measures of the BSL baseline, computed per candidate
  * pair from weighted gram vectors:
  *
  *  - cosine             = dot(w1, w2) / (||w1|| · ||w2||)
  *  - jaccard            = |G1 ∩ G2| / |G1 ∪ G2|              (set-based)
  *  - generalized jaccard = Σ min(w1,w2) / Σ max(w1,w2)        (over G1 ∪ G2)
  *  - sigma (SiGMa-style weighted overlap) = Σ_{common}(w1+w2) / (Σ w1 + Σ w2)
  */
object BslSimilarities {

  val Cosine     = "cosine"
  val Jaccard    = "jaccard"
  val GenJaccard = "genjaccard"
  val Sigma      = "sigma"
  val all: Seq[String] = Seq(Cosine, Jaccard, GenJaccard, Sigma)

  /** (e1, e2, cosine, jaccard, genjaccard, sigma) for the candidate pairs.
    *
    * `dfCap` drops grams whose per-side frequency exceeds the cap (the
    * stop-word equivalents) to bound the pairs per gram; entity norms/sums are
    * computed over the same capped vectors for consistency. One plan: window
    * sums over the union of both sides count each gram's rows per side and
    * give each entity's totals, which ride through the pairing and the
    * candidate semi-join as grouping keys of the one aggregation. The pairs
    * that share a gram come from one grouping by gram: each gram's kept rows,
    * one list per side, and their cross product. A self-join of the union on
    * gram would shuffle it twice when the vectors are cached, since Spark
    * reuses no exchange across a self-join of a cache. A measure whose
    * denominator is 0 (an entity whose kept weights are all 0, as TF-IDF
    * weighs a gram that every entity holds) scores 0.
    */
  def pairSims(v1: DataFrame, v2: DataFrame, candidates: DataFrame,
               dfCap: Long = 1000): DataFrame = {
    val side = col("side")
    def rowsOn(s: Int) = sum(when(side === s, 1L).otherwise(0L)).over(Window.partitionBy("gram"))
    val byEntity = Window.partitionBy("side", "eid")
    // A gram over the cap on either side is a stop-word equivalent: drop it
    // globally so both vectors see the same vocabulary (a side without it counts 0).
    val kept = v1.select(lit(1).as("side"), col("eid"), col("gram"), col("w"))
      .union(v2.select(lit(2).as("side"), col("eid"), col("gram"), col("w")))
      .select(col("*"), rowsOn(1).as("n1"), rowsOn(2).as("n2"))
      .where(col("n1") <= dfCap && col("n2") <= dfCap)
      .select(side, col("eid"), col("gram"), col("w"), sum("w").over(byEntity).as("sumw"),
              sum(col("w") * col("w")).over(byEntity).as("sq"), count(lit(1)).over(byEntity).as("sz"))
    def vector(s: Int) = collect_list(when(side === s, struct(col("eid").as(s"e$s"), col("w").as(s"w$s"),
      col("sumw").as(s"sumw$s"), col("sq").as(s"sq$s"), col("sz").as(s"sz$s")))).as(s"v$s")
    def ratio(num: Column, den: Column) = when(den =!= 0, num / den).otherwise(lit(0.0))

    kept.groupBy("gram").agg(vector(1), vector(2))
      .select(explode(col("v1")).as("a"), col("v2"))
      .select(col("a"), explode(col("v2")).as("b"))
      .select("a.*", "b.*")
      .join(candidates.select("e1", "e2"), Seq("e1", "e2"), "left_semi")
      .groupBy("e1", "e2", "sumw1", "sq1", "sz1", "sumw2", "sq2", "sz2")
      .agg(
        sum(col("w1") * col("w2")).as("dot"),
        sum(least(col("w1"), col("w2"))).as("minsum"),
        sum(col("w1") + col("w2")).as("commonsum"),
        count(lit(1)).as("inter"))
      .select(
        col("e1"), col("e2"),
        ratio(col("dot"), sqrt(col("sq1") * col("sq2"))).as(Cosine),
        ratio(col("inter").cast("double"), col("sz1") + col("sz2") - col("inter")).as(Jaccard),
        ratio(col("minsum"), col("sumw1") + col("sumw2") - col("minsum")).as(GenJaccard),
        ratio(col("commonsum"), col("sumw1") + col("sumw2")).as(Sigma))
  }
}
