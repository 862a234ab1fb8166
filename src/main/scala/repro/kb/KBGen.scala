package repro.kb

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.KB
import scala.collection.mutable
import scala.util.Random

/** Configuration of one synthetic KB pair (see DESIGN.md §3).
  *
  * The generator reproduces the *structural* properties that drive the
  * paper's evaluation rather than the raw RDF dumps (unavailable offline):
  *
  *  - matched pairs fall into evidence classes: H1-able (shared unique
  *    name), H2-able ("strong": several shared tokens unique to the pair,
  *    so valueSim ≥ 1) and "near" pairs (few shared tokens that also occur
  *    in `nearSpread` other entities per KB, so valueSim < 1) that need
  *    neighbor evidence;
  *  - a fraction of near pairs gets a *decoy*: a non-matching KB2 entity
  *    sharing MORE value tokens with the KB1 entity than the true match —
  *    this is what collapses value-only baselines on heterogeneous KBs;
  *  - names are two tokens from a finite first/last-name pool, so name
  *    tokens are individually frequent (weak value evidence) while whole
  *    name strings are near-unique (strong H1 evidence); `pNameNoise`
  *    reassigns a shared name to a random non-match (false H1 hits →
  *    precision < 100%, as observed on BBCmusic/YAGO);
  *  - background tokens are a mixture: with probability `pRareToken` a
  *    *per-KB* rare token (a large pool private to each KB — KBs share
  *    frequent vocabulary, not one-off rare tokens; a rare token unique to
  *    one entity on each side would otherwise fabricate H2 matches between
  *    non-matches), otherwise a zipf-distributed head token from a
  *    vocabulary partially shared between the KBs; stop-word tokens appear
  *    in every entity and must be eliminated by Block Purging;
  *  - one high-importance relation links matched entities to matched
  *    entities with mirrored targets (modulo `pEdgeNoise`), lower-importance
  *    relations add noise; attribute/relation/type/namespace counts model
  *    the schema heterogeneity reported in Table I.
  */
final case class KBConfig(
    name: String,
    n1: Int, n2: Int, nMatches: Int,
    pName: Double, pNameNoise: Double,
    pStrong: Double, pDecoy: Double,
    decoyTokens: Int = 3,
    nearSpread: Int = 3,
    nameSpread: Int = 0,
    tokensPerEntity1: Int = 10, tokensPerEntity2: Int = 10,
    vocabSize: Int = 2000, vocabOverlap: Double = 0.7,
    pRareToken: Double = 0.7, rarePoolFactor: Int = 20,
    namePool: Int = 500,
    attrs1: Int = 4, attrs2: Int = 4,
    rels1: Int = 2, rels2: Int = 2,
    types1: Int = 3, types2: Int = 3,
    ns1: Int = 2, ns2: Int = 2,
    avgNeighbors: Int = 2, pEdgeNoise: Double = 0.0,
    stopwords: Int = 3,
    seed: Long = 42) {

  require(nMatches <= math.min(n1, n2), s"$name: nMatches must fit in both KBs")

  /** Scale entity counts (and the pools that must scale with them) by sf.
    *
    * The name pool scales with sqrt(sf): name uniqueness depends on the
    * pool-squared combination space, so a sqrt keeps the collision rate —
    * and thus H1's contribution — stable across scales.
    */
  def scaled(sf: Double): KBConfig = copy(
    n1 = math.max(12, (n1 * sf).toInt),
    n2 = math.max(12, (n2 * sf).toInt),
    nMatches = math.max(6, (nMatches * sf).toInt),
    vocabSize = math.max(60, (vocabSize * sf).toInt),
    namePool = math.max(25, (namePool * math.sqrt(sf)).toInt))
}

/** A generated KB pair plus its ground truth (e1, e2). */
final case class KBPair(cfg: KBConfig, kb1: DataFrame, kb2: DataFrame, groundTruth: DataFrame)

object KBGen {

  /** Tokens a strong pair shares, and tokens a near pair shares. */
  private val StrongTokens = 5
  private val NearTokens = 2

  /** Deterministic zipf(1.0) sampler over [0, size). */
  private final class Zipf(size: Int, rnd: Random) {
    private val cdf = {
      val w = Array.tabulate(size)(i => 1.0 / (i + 1))
      val total = w.sum
      var acc = 0.0
      w.map { x => acc += x / total; acc }
    }
    def next(): Int = {
      val u = rnd.nextDouble()
      val i = java.util.Arrays.binarySearch(cdf, u)
      val idx = if (i >= 0) i else -i - 1
      math.min(size - 1, idx)
    }
  }

  def generate(spark: SparkSession, cfg: KBConfig): KBPair = {
    val rnd  = new Random(cfg.seed)
    val zipf = new Zipf(cfg.vocabSize, rnd)

    // KB2 background vocabulary: partially shared with KB1's ("w"), rest own ("u").
    val kb2tok = Array.tabulate(cfg.vocabSize) { i =>
      if (rnd.nextDouble() < cfg.vocabOverlap) s"w$i" else s"u$i"
    }

    // --- token bags -------------------------------------------------------
    val rarePool = math.max(1, cfg.vocabSize * cfg.rarePoolFactor)
    def bgToken(kb: Int): String =
      if (rnd.nextDouble() < cfg.pRareToken) s"r${kb}x${rnd.nextInt(rarePool)}"
      else if (kb == 1) s"w${zipf.next()}"
      else kb2tok(zipf.next())
    val toks1 = Array.fill(cfg.n1)(mutable.ArrayBuffer.empty[String])
    val toks2 = Array.fill(cfg.n2)(mutable.ArrayBuffer.empty[String])
    for (e <- 0 until cfg.n1) {
      for (j <- 0 until cfg.stopwords) toks1(e) += s"stop$j"
      for (_ <- 0 until cfg.tokensPerEntity1) toks1(e) += bgToken(1)
    }
    for (e <- 0 until cfg.n2) {
      for (j <- 0 until cfg.stopwords) toks2(e) += s"stop$j"
      for (_ <- 0 until cfg.tokensPerEntity2) toks2(e) += bgToken(2)
    }

    // Evidence classes of the matched pairs (ids 0 .. nMatches-1 on both sides).
    val named   = Array.fill(cfg.nMatches)(false)
    val strong  = Array.fill(cfg.nMatches)(false)
    // Pair-exclusive tokens go into dedicated single-token literal values so
    // that PARIS-style literal-equality evidence sees them too.
    val special1 = Array.fill(cfg.n1)(mutable.ArrayBuffer.empty[String])
    val special2 = Array.fill(cfg.n2)(mutable.ArrayBuffer.empty[String])

    for (i <- 0 until cfg.nMatches) {
      named(i)  = rnd.nextDouble() < cfg.pName
      strong(i) = rnd.nextDouble() < cfg.pStrong
      if (strong(i)) {
        for (j <- 0 until StrongTokens) {
          val t = s"s${i}x$j"; special1(i) += t; special2(i) += t
        }
      } else {
        for (j <- 0 until NearTokens) {
          val t = s"m${i}x$j"; special1(i) += t; special2(i) += t
          for (_ <- 0 until cfg.nearSpread) {
            special1(rnd.nextInt(cfg.n1)) += t
            special2(rnd.nextInt(cfg.n2)) += t
          }
        }
        if (rnd.nextDouble() < cfg.pDecoy && cfg.n2 > cfg.nMatches) {
          val d = cfg.nMatches + rnd.nextInt(cfg.n2 - cfg.nMatches)
          for (j <- 0 until cfg.decoyTokens) {
            val t = s"d${i}x$j"; special1(i) += t; special2(d) += t
            for (_ <- 0 until cfg.nearSpread) {
              special1(rnd.nextInt(cfg.n1)) += t
              special2(rnd.nextInt(cfg.n2)) += t
            }
          }
        }
      }
    }

    // --- names ------------------------------------------------------------
    def randomName(): String = s"fn${rnd.nextInt(cfg.namePool)} ln${rnd.nextInt(cfg.namePool)}"
    val names1 = Array.fill(cfg.n1)(randomName())
    val names2 = Array.fill(cfg.n2)(randomName())
    for (i <- 0 until cfg.nMatches if named(i)) {
      names2(i) = names1(i)
      if (rnd.nextDouble() < cfg.pNameNoise && cfg.n2 > cfg.nMatches) {
        // Corrupt: the shared name migrates to a random non-match → false H1.
        val d = cfg.nMatches + rnd.nextInt(cfg.n2 - cfg.nMatches)
        names2(d) = names1(i)
        names2(i) = randomName()
      }
    }

    // Name spreading: matched names also appear inside other entities'
    // values (movie KBs embed person names in titles/credits). This dilutes
    // the name-n-gram evidence available to value-only baselines while
    // leaving the whole-string name blocks (H1) untouched.
    for (i <- 0 until cfg.nMatches if named(i); _ <- 0 until cfg.nameSpread) {
      toks1(rnd.nextInt(cfg.n1)) ++= names1(i).split(" ")
      toks2(rnd.nextInt(cfg.n2)) ++= names2(i).split(" ")
    }

    // --- mirrored neighbor structure --------------------------------------
    val nbrTargets = Array.tabulate(cfg.nMatches) { _ =>
      Array.fill(math.max(1, cfg.avgNeighbors))(rnd.nextInt(cfg.nMatches))
    }

    // --- triple assembly ---------------------------------------------------
    def build(kb: Int, n: Int, nsCount: Int, nAttrs: Int, nRels: Int, nTypes: Int,
              toks: Array[mutable.ArrayBuffer[String]],
              specials: Array[mutable.ArrayBuffer[String]],
              names: Array[String]): Seq[KB.TripleRow] = {
      val rows = mutable.ArrayBuffer.empty[KB.TripleRow]
      val typeZipf = new Zipf(nTypes, rnd)
      def attrName(k: Int) = s"ns${k % nsCount}:attr${kb}x$k"
      val nameAttr  = s"ns0:name$kb"
      val aliasAttr = s"ns0:alias$kb"
      val catAttr   = s"ns0:cat$kb"
      val typeAttr  = s"ns0:type$kb"
      for (e <- 0 until n) {
        rows += KB.TripleRow(e, nameAttr, Some(names(e)), None)
        rows += KB.TripleRow(e, aliasAttr, Some(s"al${kb}x$e"), None)
        // Per-KB category value: low-discriminability fodder for the
        // importance ranking, NOT cross-KB matching evidence (a shared
        // category token would hand value-only baselines a free alignment
        // signal on every matched pair).
        rows += KB.TripleRow(e, catAttr, Some(s"c${kb}x${e % 5}"), None)
        rows += KB.TripleRow(e, typeAttr, Some(s"t${kb}x${typeZipf.next()}"), None)
        // Each entity uses its own small subset of the token attributes
        // (entities rarely carry the whole schema) — this keeps token-attr
        // support ~0.5/nAttrs-ish, well below the name attributes'.
        val myAttrs = Array.fill(2)(rnd.nextInt(math.max(1, nAttrs)))
        def someAttr(): String = attrName(myAttrs(rnd.nextInt(myAttrs.length)))
        // Pair-evidence tokens: one single-token literal value each.
        for (t <- specials(e))
          rows += KB.TripleRow(e, someAttr(), Some(t), None)
        // Background tokens: chunks of 3 under one of the entity's attrs.
        for (chunk <- toks(e).grouped(3))
          rows += KB.TripleRow(e, someAttr(), Some(chunk.mkString(" ")), None)
        // Relations: one high-importance relation (mirrored for matches) ...
        val primary = s"ns0:rel${kb}x0"
        if (e < cfg.nMatches) {
          for (t <- nbrTargets(e)) {
            val target =
              if (kb == 2 && rnd.nextDouble() < cfg.pEdgeNoise) rnd.nextInt(n).toLong
              else t.toLong
            rows += KB.TripleRow(e, primary, None, Some(target))
          }
        } else {
          for (_ <- 0 until math.max(1, cfg.avgNeighbors))
            rows += KB.TripleRow(e, primary, None, Some(rnd.nextInt(n).toLong))
        }
        // ... plus lower-support noise relations.
        for (k <- 1 until nRels if rnd.nextDouble() < 0.3)
          rows += KB.TripleRow(e, s"ns${k % nsCount}:rel${kb}x$k", None, Some(rnd.nextInt(n).toLong))
      }
      rows.toSeq
    }

    val rows1 = build(1, cfg.n1, cfg.ns1, cfg.attrs1, cfg.rels1, cfg.types1, toks1, special1, names1)
    val rows2 = build(2, cfg.n2, cfg.ns2, cfg.attrs2, cfg.rels2, cfg.types2, toks2, special2, names2)

    import spark.implicits._
    val gt = (0 until cfg.nMatches).map(i => (i.toLong, i.toLong)).toDF("e1", "e2")
    KBPair(cfg, KB.fromRows(spark, rows1), KB.fromRows(spark, rows2), gt)
  }
}
