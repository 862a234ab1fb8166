package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, rng}
import repro.SparkSpec
import repro.baseline.Ngrams

/** [[Tokenizer.tokens]] and the n-grams of [[Ngrams.grams]] equal
  * [[ReferenceTokenizer]] on random strings mixing ASCII with characters whose
  * lower case or category is special: a dotted capital I, a capital sigma, a
  * sharp s, a ligature, a combining accent, a Roman numeral and full-width
  * forms. The strings are rows of one frame, so one query checks them all.
  *
  * Catalyst's `lower` follows Unicode's Final_Sigma rule, and the JVM's
  * `String.toLowerCase` its own, so the two may write a capital sigma as σ
  * and ς the other way round. Rows with a capital sigma are compared with ς
  * read as σ; every other row must be equal as it is.
  */
class TokenizerEquivalenceSpec extends SparkSpec {
  import spark.implicits._

  private val special = "İΣßﬁ\u0301ⅫＡＢｃ１２！\u3000"
  private val char: Gen[Char] = Gen.frequency(
    4 -> Gen.alphaNumChar,
    2 -> Gen.oneOf(" .,;:-_!?'\"()/"),
    2 -> Gen.oneOf(special))
  private val string: Gen[String] =
    Gen.frequency(1 -> Gen.const(null), 30 -> Gen.choose(0, 24).flatMap(Gen.stringOfN(_, char)))

  private lazy val strings: Seq[String] =
    Gen.listOfN(300, string).apply(Gen.Parameters.default, rng.Seed(7L)).get

  private lazy val rows: Seq[(String, Seq[Seq[String]])] = {
    val t = Tokenizer.tokens(col("s"))
    strings.toDF("s")
      .select(col("s"), array(t, Ngrams.grams(t, 1), Ngrams.grams(t, 2), Ngrams.grams(t, 3)))
      .collect()
      .map(r => r.getString(0) -> r.getSeq[collection.Seq[String]](1).map(g => Option(g).fold(Seq.empty[String])(_.toSeq)).toSeq)
      .toSeq
  }

  test("the random strings cover special characters, nulls and trigrams") {
    assert(strings.exists(s => s != null && s.exists(special.contains(_))))
    assert(strings.contains(null))
    assert(strings.exists(ReferenceTokenizer.gramsOf(_, 3).nonEmpty))
  }

  test("tokens and the 1-, 2- and 3-grams equal the reference on every row") {
    assert(rows.size == strings.size)
    for ((s, Seq(tokens, g1, g2, g3)) <- rows) {
      val clue = String.valueOf(s)
      val read: Seq[String] => Seq[String] =
        if (s != null && s.contains('Σ')) _.map(_.replace('ς', 'σ')) else identity
      assert(read(tokens) == read(ReferenceTokenizer.tokenize(s)), clue)
      assert(read(g1) == read(ReferenceTokenizer.gramsOf(s, 1)), clue)
      assert(read(g2) == read(ReferenceTokenizer.gramsOf(s, 2)), clue)
      assert(read(g3) == read(ReferenceTokenizer.gramsOf(s, 3)), clue)
    }
  }
}
