package repro.core

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class TokenBlockingSpec extends SparkSpec {
  import spark.implicits._

  private val smooth = MinoanERParams().purgeSmooth

  private def toks(pairs: (Long, String)*) = pairs.toDF("eid", "token")

  test("blocks keep only tokens present on both sides") {
    val b = TokenBlocking.blocks(
      toks((0L, "a"), (1L, "b")),
      toks((9L, "b"), (9L, "c")))
    assert(b.select("token").as[String].collect().toSeq == Seq("b"))
  }

  test("block sizes count entities per side") {
    val b = TokenBlocking.blocks(
      toks((0L, "a"), (1L, "a"), (2L, "a")),
      toks((9L, "a"), (8L, "a")))
      .select("n1", "n2", "comparisons").as[(Long, Long, Long)].collect()
    assert(b.toSeq == Seq((3L, 2L, 6L)))
  }

  test("block sizes agree with a DuckDB join oracle") {
    val t1 = toks((0L, "a"), (1L, "a"), (2L, "b"), (3L, "c"))
    val t2 = toks((9L, "a"), (8L, "b"), (7L, "b"))
    Oracle.assertEquivalent(
      TokenBlocking.blocks(t1, t2).select("token", "n1", "n2"),
      """SELECT b1.token AS token, b1.n1 AS n1, b2.n2 AS n2
        |FROM (SELECT token, count(*) AS n1 FROM t1 GROUP BY token) b1
        |JOIN (SELECT token, count(*) AS n2 FROM t2 GROUP BY token) b2 USING (token)""".stripMargin,
      "t1" -> t1, "t2" -> t2)
  }

  test("purging removes a stop-word mega block") {
    // 50 singleton blocks (1x1) plus one mega block of 40x40.
    val t1 = (0 until 50).map(i => (i.toLong, s"rare$i")) ++
             (0 until 40).map(i => (i.toLong, "stop"))
    val t2 = (0 until 50).map(i => (100L + i, s"rare$i")) ++
             (0 until 40).map(i => (100L + i, "stop"))
    val purged = TokenBlocking.purge(TokenBlocking.blocks(t1.toDF("eid", "token"), t2.toDF("eid", "token")), smooth)
    val kept = purged.select("token").as[String].collect().toSet
    assert(!kept.contains("stop"))
    assert(kept.size == 50)
  }

  test("purging keeps a uniform block collection untouched") {
    val t1 = (0 until 30).map(i => (i.toLong, s"t$i"))
    val t2 = (0 until 30).map(i => (100L + i, s"t$i"))
    val blocks = TokenBlocking.blocks(t1.toDF("eid", "token"), t2.toDF("eid", "token"))
    assert(TokenBlocking.purge(blocks, smooth).count() == 30)
  }

  test("purging keeps blocks whose removal yields only marginal density gain") {
    // 30 singleton 1x1 blocks plus a single 1x2 block: removing the 1x2
    // level improves density by <2.5%, so the purging walk keeps it.
    val t1 = (0 until 30).map(i => (i.toLong, s"a$i")) :+ (0L, "b0")
    val t2 = (0 until 30).map(i => (100L + i, s"a$i")) ++ Seq((100L, "b0"), (101L, "b0"))
    val blocks = TokenBlocking.blocks(t1.toDF("eid", "token"), t2.toDF("eid", "token"))
    val purged = TokenBlocking.purge(blocks, smooth)
    assert(purged.count() == blocks.count())
  }

  test("purging an empty block collection is a no-op") {
    val empty = TokenBlocking.blocks(toks((0L, "a")), toks((9L, "b")))
    assert(TokenBlocking.purge(empty, smooth).count() == 0)
  }

  test("candidatePairs enumerates cross pairs of kept blocks only") {
    val t1 = toks((0L, "a"), (1L, "b"))
    val t2 = toks((9L, "a"), (8L, "a"), (7L, "b"))
    val blocks = TokenBlocking.blocks(t1, t2)
    val onlyA = blocks.where(col("token") === "a")
    val p = TokenBlocking.candidatePairs(t1, t2, onlyA).as[(Long, Long)].collect().toSet
    assert(p == Set((0L, 9L), (0L, 8L)))
  }

  test("candidatePairs deduplicates pairs co-occurring in several blocks") {
    val t1 = toks((0L, "a"), (0L, "b"))
    val t2 = toks((9L, "a"), (9L, "b"))
    val blocks = TokenBlocking.blocks(t1, t2)
    assert(TokenBlocking.candidatePairs(t1, t2, blocks).count() == 1)
  }

  test("stats sum comparisons with multiplicity") {
    val t1 = toks((0L, "a"), (0L, "b"), (1L, "a"))
    val t2 = toks((9L, "a"), (9L, "b"))
    val (nb, cc) = TokenBlocking.stats(TokenBlocking.blocks(t1, t2))
    assert(nb == 2)
    assert(cc == 2.0 + 1.0) // a: 2x1, b: 1x1
  }

  test("purging reduces comparisons by orders of magnitude on stop-word data") {
    // Models the paper's claim: purged BT has far fewer comparisons, recall kept.
    val n = 200
    val t1 = (0 until n).flatMap(i => Seq((i.toLong, s"rare$i"), (i.toLong, "the"), (i.toLong, "of")))
    val t2 = (0 until n).flatMap(i => Seq((1000L + i, s"rare$i"), (1000L + i, "the"), (1000L + i, "of")))
    val blocks = TokenBlocking.blocks(t1.toDF("eid", "token"), t2.toDF("eid", "token"))
    val (_, ccAll) = TokenBlocking.stats(blocks)
    val (_, ccKept) = TokenBlocking.stats(TokenBlocking.purge(blocks, smooth))
    assert(ccKept * 50 < ccAll)   // 2 mega blocks of n^2 vs n singletons
    assert(ccKept == n.toDouble)  // all rare blocks kept
  }
}
