package repro.core

/** Tokens and n-grams of one string on the driver, with the JVM's
  * `String.toLowerCase` and a split on non-letter/digit runs. It is the
  * reference the Catalyst expressions [[Tokenizer.tokens]] and
  * [[repro.baseline.Ngrams.grams]] are checked against.
  */
object ReferenceTokenizer {

  def tokenize(s: String): Seq[String] =
    if (s == null) Seq.empty
    else s.toLowerCase.split("[^\\p{L}\\p{N}]+").iterator.filter(_.nonEmpty).toSeq

  def gramsOf(s: String, n: Int): Seq[String] = {
    val t = tokenize(s)
    if (n <= 1) t
    else t.sliding(n).filter(_.sizeIs == n).map(_.mkString("_")).toSeq
  }
}
