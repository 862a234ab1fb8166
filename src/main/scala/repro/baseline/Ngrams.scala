package repro.baseline

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{KB, Tokenizer}

/** Token n-gram vectors for the BSL baseline.
  *
  * BSL represents every resource by the token uni-/bi-/tri-grams of its
  * literal values (n ∈ {1,2,3}); an n-gram is a sequence of n consecutive
  * tokens within one value.
  */
object Ngrams {

  /** The n-grams of a token array column, in order, each joined by "_".
    * Null when there are fewer than n tokens: `sequence(1, 0)` would count
    * down, and `slice` rejects a start of 0.
    */
  def grams(tokens: Column, n: Int): Column =
    if (n <= 1) tokens
    else when(size(tokens) >= n,
      transform(sequence(lit(1), size(tokens) - n + 1), i => array_join(slice(tokens, i, lit(n)), "_")))

  /** Bag vectors: (eid, gram, tf). */
  def entityGrams(triples: DataFrame, n: Int): DataFrame =
    KB.literals(triples)
      .select(col(KB.Eid), Tokenizer.tokens(col(KB.Lit)).as("tokens"))
      .select(col(KB.Eid), explode(grams(col("tokens"), n)).as("gram"))
      .groupBy(KB.Eid, "gram")
      .agg(count(lit(1)).cast("double").as("tf"))
}
