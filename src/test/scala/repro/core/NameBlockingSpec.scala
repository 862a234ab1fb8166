package repro.core

import repro.SparkSpec

class NameBlockingSpec extends SparkSpec {
  import spark.implicits._

  private def kb1 = KB.fromRows(spark, Seq(
    KB.TripleRow(0, "title", Some("  Alpha Beta "), None),
    KB.TripleRow(1, "title", Some("Gamma"), None),
    KB.TripleRow(2, "title", Some("Shared Dup"), None),
    KB.TripleRow(3, "title", Some("Shared Dup"), None),
    KB.TripleRow(4, "other", Some("ignored"), None),
    KB.TripleRow(5, "title", Some(""), None)))

  private def kb2 = KB.fromRows(spark, Seq(
    KB.TripleRow(10, "label", Some("alpha beta"), None),
    KB.TripleRow(11, "label", Some("delta"), None),
    KB.TripleRow(12, "label", Some("shared dup"), None),
    KB.TripleRow(13, "label", Some("gamma"), None),
    KB.TripleRow(14, "label", Some("gamma"), None)))

  private def n1 = NameBlocking.names(kb1, Seq("title"))
  private def n2 = NameBlocking.names(kb2, Seq("label"))

  test("names are lowercased and trimmed") {
    val names = n1.as[(Long, String)].collect().toMap
    assert(names(0L) == "alpha beta")
  }

  test("names only come from the given attributes") {
    assert(!n1.as[(Long, String)].collect().exists(_._2 == "ignored"))
  }

  test("empty names are dropped") {
    assert(!n1.as[(Long, String)].collect().exists(_._1 == 5L))
  }

  test("blocks contain only names present on both sides") {
    val b = NameBlocking.blocks(n1, n2).select("name").as[String].collect().toSet
    assert(b == Set("alpha beta", "shared dup", "gamma"))
  }

  test("block comparisons are n1*n2") {
    val b = NameBlocking.blocks(n1, n2)
      .select("name", "comparisons").as[(String, Long)].collect().toMap
    assert(b("shared dup") == 2L) // 2 KB1 entities x 1 KB2 entity
    assert(b("gamma") == 2L)      // 1 x 2
  }

  test("H1 matches 1x1 blocks only") {
    val m = NameBlocking.h1Matches(n1, n2).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 10L)))
  }

  test("H1 skips names duplicated in KB1") {
    val m = NameBlocking.h1Matches(n1, n2).as[(Long, Long)].collect().toSet
    assert(!m.exists(_._2 == 12L))
  }

  test("H1 skips names duplicated in KB2") {
    val m = NameBlocking.h1Matches(n1, n2).as[(Long, Long)].collect().toSet
    assert(!m.exists(_._1 == 1L))
  }

  test("candidatePairs unions every cross pair of each block") {
    val p = NameBlocking.candidatePairs(n1, n2).as[(Long, Long)].collect().toSet
    assert(p == Set((0L, 10L), (2L, 12L), (3L, 12L), (1L, 13L), (1L, 14L)))
  }

  test("an entity with two name attributes can match through either") {
    val a = KB.fromRows(spark, Seq(
      KB.TripleRow(0, "t", Some("only in a"), None),
      KB.TripleRow(0, "u", Some("shared name"), None)))
    val b = KB.fromRows(spark, Seq(
      KB.TripleRow(9, "v", Some("shared name"), None)))
    val m = NameBlocking.h1Matches(
      NameBlocking.names(a, Seq("t", "u")),
      NameBlocking.names(b, Seq("v"))).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 9L)))
  }

  test("an entity that holds one name under both name attributes still forms a unique block") {
    val a = KB.fromRows(spark, Seq(
      KB.TripleRow(0, "t", Some("Same Name"), None),
      KB.TripleRow(0, "u", Some("same name "), None)))
    val b = KB.fromRows(spark, Seq(KB.TripleRow(9, "v", Some("same name"), None)))
    val names2 = NameBlocking.names(b, Seq("v"))
    assert(NameBlocking.h1Matches(NameBlocking.names(a, Seq("t", "u")), names2)
      .as[(Long, Long)].collect().toSet == Set((0L, 9L)))
    // The same with the duplicate (eid, name) rows kept.
    val dup = Seq((0L, "same name"), (0L, "same name")).toDF(KB.Eid, "name")
    assert(NameBlocking.h1Matches(dup, names2).as[(Long, Long)].collect().toSet == Set((0L, 9L)))
  }
}
