package repro.perfbench

/** Minimal JSON encoder for the result file: maps, sequences, strings,
  * numbers, booleans and null. Doubles keep all their digits; NaN and
  * infinities become null.
  */
object Json {
  def encode(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => encode(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + encode(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(encode).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    (sb += '"').result()
  }
}
