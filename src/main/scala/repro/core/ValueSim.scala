package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Token-based value similarity.
  *
  * valueSim(ei, ej) = Σ_{t ∈ tokens(ei) ∩ tokens(ej)} 1 / log2(EF_E1(t) · EF_E2(t) + 1)
  *
  * where EF_E(t) is the Entity Frequency of token t in KB E — exactly the
  * size of t's token block on E's side. A token unique to one entity in each
  * KB contributes 1/log2(2) = 1, so vmax ≥ 1 captures "they, and only they,
  * share a common token, or they share many infrequent tokens".
  */
object ValueSim {

  /** (token, weight) for the kept (purged) blocks: 1/log2(EF1·EF2 + 1). */
  def tokenWeights(keptBlocks: DataFrame): DataFrame =
    keptBlocks.select(
      col("token"),
      (lit(1.0) / log2(col("n1") * col("n2") + lit(1))).as("weight"))

  /** valueSim for every co-occurring pair: (e1, e2, vsim). */
  def pairSims(tokens1: DataFrame, tokens2: DataFrame, weights: DataFrame): DataFrame = {
    val t1 = tokens1.select(col(KB.Eid).as("e1"), col("token"))
    val t2 = tokens2.select(col(KB.Eid).as("e2"), col("token"))
    t1.join(weights, "token")
      .join(t2, "token")
      .groupBy("e1", "e2")
      .agg(sum("weight").as("vsim"))
  }
}
