package repro.baseline

import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.{KB, Tokenizer}

class NgramsSpec extends SparkSpec {
  import spark.implicits._

  /** The n-grams of `s` on a one-row frame; a null array, which `explode`
    * treats as empty, reads as no grams.
    */
  private def gramsOf(s: String, n: Int): Seq[String] =
    Option(Seq(s).toDF("s").select(Ngrams.grams(Tokenizer.tokens(col("s")), n)).head().getSeq[String](0))
      .getOrElse(Seq.empty)

  test("unigrams are plain tokens") {
    assert(gramsOf("a b c", 1) == Seq("a", "b", "c"))
  }

  test("bigrams join consecutive tokens") {
    assert(gramsOf("a b c", 2) == Seq("a_b", "b_c"))
  }

  test("trigrams join three consecutive tokens") {
    assert(gramsOf("a b c d", 3) == Seq("a_b_c", "b_c_d"))
  }

  test("values shorter than n yield no grams") {
    assert(gramsOf("a b", 3) == Seq.empty)
  }

  test("grams do not cross value boundaries") {
    val kb = KB.fromRows(spark, Seq(
      KB.TripleRow(0, "a", Some("x y"), None),
      KB.TripleRow(0, "b", Some("z w"), None)))
    val grams = Ngrams.entityGrams(kb, 2).select("gram").as[String].collect().toSet
    assert(grams == Set("x_y", "z_w")) // no y_z
  }

  test("entityGrams aggregates term frequencies across values") {
    val kb = KB.fromRows(spark, Seq(
      KB.TripleRow(0, "a", Some("x x"), None),
      KB.TripleRow(0, "b", Some("x"), None)))
    val rows = Ngrams.entityGrams(kb, 1).as[(Long, String, Double)].collect()
    assert(rows.toSeq == Seq((0L, "x", 3.0)))
  }

  test("entityGrams ignores relation triples") {
    val kb = KB.fromRows(spark, Seq(
      KB.TripleRow(0, "a", Some("x"), None),
      KB.TripleRow(0, "r", None, Some(1L))))
    assert(Ngrams.entityGrams(kb, 1).count() == 1)
  }
}
