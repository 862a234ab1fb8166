package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Name extraction and the name-based block collection B_N (Heuristic H1).
  *
  * Entire name values (literals of the top-k most important attributes) act
  * as blocking keys. A block containing exactly one entity from each KB
  * indicates a matching pair: two entities match if they, and only they,
  * share the same name.
  */
object NameBlocking {

  /** Distinct (eid, name): lower-cased, trimmed values of the name attrs. */
  def names(triples: DataFrame, nameAttrs: Seq[String]): DataFrame =
    KB.literals(triples)
      .where(col(KB.Pred).isin(nameAttrs: _*))
      .select(col(KB.Eid), lower(trim(col(KB.Lit))).as("name"))
      .where(length(col("name")) > 0)
      .distinct()

  /** Cross-KB name blocks: (name, n1, n2, comparisons) for names on both sides. */
  def blocks(names1: DataFrame, names2: DataFrame): DataFrame = {
    val b1 = names1.groupBy("name").agg(countDistinct(KB.Eid).as("n1"))
    val b2 = names2.groupBy("name").agg(countDistinct(KB.Eid).as("n2"))
    b1.join(b2, "name").withColumn("comparisons", col("n1") * col("n2"))
  }

  /** All candidate pairs suggested by the name blocks (for Table II / BSL). */
  def candidatePairs(names1: DataFrame, names2: DataFrame): DataFrame =
    names1.select(col(KB.Eid).as("e1"), col("name"))
      .join(names2.select(col(KB.Eid).as("e2"), col("name")), "name")
      .select("e1", "e2")
      .distinct()

  /** H1 matches: name blocks of size exactly 1 x 1. A name is unique on a
    * side when its smallest and largest entity ids agree; unlike a distinct
    * count, `min` and `max` ignore duplicate rows, so Spark drops the names'
    * `distinct` under this aggregation.
    */
  def h1Matches(names1: DataFrame, names2: DataFrame): DataFrame = {
    def unique(names: DataFrame, e: String): DataFrame =
      names.groupBy("name").agg(min(KB.Eid).as(e), max(KB.Eid).as("last"))
        .where(col(e) === col("last"))
        .select("name", e)
    unique(names1, "e1").join(unique(names2, "e2"), "name").select("e1", "e2").distinct()
  }
}
