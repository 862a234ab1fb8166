package repro.core

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class ValueSimSpec extends SparkSpec {
  import spark.implicits._

  private def toks(pairs: (Long, String)*) = pairs.toDF("eid", "token")

  private def log2(x: Double) = math.log(x) / math.log(2)

  test("a token unique to both sides weighs exactly 1") {
    val b = TokenBlocking.blocks(toks((0L, "u")), toks((9L, "u")))
    val w = ValueSim.tokenWeights(b).as[(String, Double)].collect().toMap
    assert(math.abs(w("u") - 1.0) < 1e-12)
  }

  test("weight formula is 1/log2(ef1*ef2+1)") {
    val b = TokenBlocking.blocks(
      toks((0L, "t"), (1L, "t"), (2L, "t")),
      toks((9L, "t"), (8L, "t")))
    val w = ValueSim.tokenWeights(b).as[(String, Double)].collect().toMap
    assert(math.abs(w("t") - 1.0 / log2(7.0)) < 1e-12)
  }

  test("valueSim sums weights over shared tokens") {
    val t1 = toks((0L, "u"), (0L, "v"), (0L, "w"))
    val t2 = toks((9L, "u"), (9L, "v"))
    val b = TokenBlocking.blocks(t1, t2)
    val vs = ValueSim.pairSims(t1, t2, ValueSim.tokenWeights(b))
      .as[(Long, Long, Double)].collect()
    assert(vs.length == 1)
    assert(math.abs(vs.head._3 - 2.0) < 1e-12) // two unique shared tokens
  }

  test("valueSim covers exactly the co-occurring pairs") {
    val t1 = toks((0L, "a"), (1L, "b"))
    val t2 = toks((9L, "a"), (8L, "c"))
    val b = TokenBlocking.blocks(t1, t2)
    val pairs = ValueSim.pairSims(t1, t2, ValueSim.tokenWeights(b))
      .select("e1", "e2").as[(Long, Long)].collect().toSet
    assert(pairs == Set((0L, 9L)))
  }

  test("frequent tokens contribute less than rare ones") {
    // "rare" unique to the pair; "freq" in 5 entities per side.
    val t1 = toks(Seq((0L, "rare"), (0L, "freq")) ++ (1 to 4).map(i => (i.toLong, "freq")): _*)
    val t2 = toks(Seq((9L, "rare"), (9L, "freq")) ++ (10 to 13).map(i => (i.toLong, "freq")): _*)
    val b = TokenBlocking.blocks(t1, t2)
    val w = ValueSim.tokenWeights(b).as[(String, Double)].collect().toMap
    assert(w("rare") > 4 * w("freq"))
  }

  test("valueSim respects the purged block set") {
    val t1 = toks((0L, "keep"), (0L, "drop"))
    val t2 = toks((9L, "keep"), (9L, "drop"))
    val b = TokenBlocking.blocks(t1, t2).where(col("token") === "keep")
    val vs = ValueSim.pairSims(t1, t2, ValueSim.tokenWeights(b))
      .as[(Long, Long, Double)].collect()
    assert(math.abs(vs.head._3 - 1.0) < 1e-12)
  }

  test("valueSim aggregate agrees with a DuckDB weighted-join oracle") {
    val t1 = toks((0L, "a"), (0L, "b"), (1L, "a"))
    val t2 = toks((9L, "a"), (9L, "b"), (8L, "b"))
    val b = TokenBlocking.blocks(t1, t2)
    val vs = ValueSim.pairSims(t1, t2, ValueSim.tokenWeights(b))
    Oracle.assertEquivalent(
      vs,
      """WITH ef1 AS (SELECT token, count(*) AS n1 FROM t1 GROUP BY token),
        |     ef2 AS (SELECT token, count(*) AS n2 FROM t2 GROUP BY token),
        |     w AS (SELECT token, 1.0/log2(n1*n2+1) AS weight
        |           FROM ef1 JOIN ef2 USING (token))
        |SELECT t1.eid AS e1, t2.eid AS e2, sum(w.weight) AS vsim
        |FROM t1 JOIN w USING (token) JOIN t2 USING (token)
        |GROUP BY t1.eid, t2.eid""".stripMargin,
      "t1" -> t1, "t2" -> t2)
  }
}
