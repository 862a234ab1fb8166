package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The non-iterative matching heuristics H2, H3 and H4.
  *
  * (H1 lives in [[NameBlocking.h1Matches]] since it is purely a property of
  * the name block collection.)
  *
  * Every heuristic is threshold-free in the paper's sense: H2's `vmax ≥ 1`
  * bound is a property of the similarity definition (a token unique to both
  * sides weighs exactly 1), and H3/H4 use ranks, not similarity cutoffs.
  *
  * All three read one candidate graph (see [[graph]]), the disjunctive
  * blocking graph of the MinoanER follow-up paper: every co-occurring pair
  * with its value and neighbor similarity, and its H4 reciprocity flag.
  */
object Heuristics {

  /** Drops the pairs whose e1 or e2 is matched. The matched lists may
    * repeat an id; a repeated key on the build side of an anti-join changes
    * nothing.
    */
  private def excludeMatched(sims: DataFrame,
                             matchedE1: DataFrame,
                             matchedE2: DataFrame): DataFrame =
    sims.join(broadcast(matchedE1.select("e1")), Seq("e1"), "left_anti")
        .join(broadcast(matchedE2.select("e2")), Seq("e2"), "left_anti")

  /** Position of each pair in the `part`-side ranking of `simCol`, best
    * first with the smaller other-side id winning ties; null where the pair
    * has no `simCol` value, so it is not in that list.
    */
  private def rank(simCol: String, part: String): Column = {
    val other = if (part == "e1") "e2" else "e1"
    val w = Window.partitionBy(part).orderBy(desc_nulls_last(simCol), asc(other))
    when(col(simCol).isNotNull, row_number().over(w))
  }

  /** The candidate graph: (e1, e2, vsim, nsim, reciprocal).
    *
    * One row per pair with a value similarity or a non-zero neighbor
    * similarity; the missing one is null. `reciprocal` is H4's test, computed
    * on these full tables: e2 is among e1's top-K value or neighbor
    * candidates, and e1 among e2's.
    */
  def graph(valueSims: DataFrame, neighborSims: DataFrame, K: Int): DataFrame = {
    def inTopK(part: String): Column =
      coalesce(rank("vsim", part) <= K, lit(false)) || coalesce(rank("nsim", part) <= K, lit(false))
    valueSims.select("e1", "e2", "vsim")
      .join(neighborSims.where(col("nsim") > 0).select("e1", "e2", "nsim"), Seq("e1", "e2"), "full_outer")
      .withColumn("reciprocal", inTopK("e1") && inTopK("e2"))
  }

  /** H2 — value heuristic.
    *
    * For every not-yet-matched KB1 entity, keep its best co-occurring KB2
    * candidate by valueSim; the pair is a match iff vmax ≥ 1. `valueSims` may
    * be the candidate graph: its pairs without a valueSim never qualify.
    * Pairs below 1 are dropped before the ranking, so the ranking sees only
    * the few that can match, and e1's best pair is still first when it
    * qualifies. Each match keeps the columns `keep` of its row, such as the
    * graph's `reciprocal` flag.
    */
  def h2(valueSims: DataFrame, matchedE1: DataFrame, matchedE2: DataFrame, keep: String*): DataFrame =
    excludeMatched(valueSims, matchedE1, matchedE2)
      .where(col("vsim") >= 1.0)
      .withColumn("rn", rank("vsim", "e1"))
      .where(col("rn") === 1)
      .select(("e1" +: "e2" +: keep).map(col): _*)

  /** H3 on the similarity tables: [[h3OnGraph]] over their [[graph]]. */
  def h3(valueSims: DataFrame,
         neighborSims: DataFrame,
         matchedE1: DataFrame,
         matchedE2: DataFrame,
         K: Int,
         theta: Double): DataFrame =
    h3OnGraph(graph(valueSims, neighborSims, K), matchedE1, matchedE2, K, theta)

  /** H3 — rank aggregation heuristic.
    *
    * For every not-yet-matched KB1 entity: rank its candidates by valueSim
    * and (separately) by non-zero neighborSim, keeping the top K of each
    * list; a list of size L scores its p-th element (L - p + 1) / L, i.e. 1
    * for the best and 1/L for the worst. The two scores are aggregated with
    * weight θ on the value list and 1-θ on the neighbor list; the top-1
    * aggregate candidate is a match ("there is no better candidate for ei
    * than ej"). Ranking happens after the matched entities are excluded.
    * Each match keeps the columns `keep` of its graph row.
    */
  def h3OnGraph(graph: DataFrame,
                matchedE1: DataFrame,
                matchedE2: DataFrame,
                K: Int,
                theta: Double,
                keep: String*): DataFrame = {
    val byE1 = Window.partitionBy("e1")
    def score(simCol: String): Column = {
      val pos = rank(simCol, "e1")
      val lsize = least(count(col(simCol)).over(byE1), lit(K.toLong))
      when(pos <= K, (lsize - pos + 1).cast("double") / lsize)
    }
    val scored = excludeMatched(graph, matchedE1, matchedE2)
      .select(Seq(col("e1"), col("e2"), score("vsim").as("sv"), score("nsim").as("sn")) ++ keep.map(col): _*)
      .where(col("sv").isNotNull || col("sn").isNotNull)
      .withColumn("score",
        lit(theta) * coalesce(col("sv"), lit(0.0)) + lit(1.0 - theta) * coalesce(col("sn"), lit(0.0)))
    scored.withColumn("rn", rank("score", "e1"))
      .where(col("rn") === 1)
      .select(("e1" +: "e2" +: keep).map(col): _*)
  }

  /** H4 on the similarity tables: [[h4OnGraph]] over their [[graph]]. */
  def h4(candidates: DataFrame,
         valueSims: DataFrame,
         neighborSims: DataFrame,
         K: Int): DataFrame =
    h4OnGraph(candidates, graph(valueSims, neighborSims, K))

  /** H4 — reciprocity heuristic.
    *
    * A candidate match (ei, ej) survives only if ej is among ei's top-K value
    * OR neighbor candidates, AND ei is among ej's top-K value or neighbor
    * candidates: the graph's `reciprocal` flag, computed from the full sim
    * tables, since reciprocity is a verification of the matches produced by
    * H1–H3. Candidates read from the graph (H2's and H3's) can carry the flag
    * instead (see [[h2]]'s `keep`), and H4 is then a filter on it.
    */
  def h4OnGraph(candidates: DataFrame, graph: DataFrame): DataFrame =
    candidates.join(graph.where(col("reciprocal")).select("e1", "e2"), Seq("e1", "e2"), "left_semi")
}
