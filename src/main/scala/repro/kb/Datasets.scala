package repro.kb

/** The four benchmark KB pairs of the paper, as synthetic analogues.
  *
  * Entity counts are scaled down from the paper (millions → thousands) so
  * that the full study runs on one node; heterogeneity profiles (name /
  * strong-value / neighbor-only evidence mix, decoys, schema divergence)
  * mirror each dataset's character as described in §IV and Table I:
  *
  *  - Restaurant:        tiny, clean, strongly similar matches — everything
  *                       should reach ~100% F1 (even the value-only BSL).
  *  - Rexa-DBLP:         mostly strongly similar, some neighbor-only; BSL
  *                       good but below MinoanER.
  *  - BBCmusic-DBpedia:  the most schema-heterogeneous pair (27 vs 10,953
  *                       attributes in the paper — here 6 vs 30); most
  *                       matches are weakly similar with decoys; BSL ~50 F1,
  *                       MinoanER ~90.
  *  - YAGO-IMDb:         very low value similarity (decoys dominate),
  *                       names + neighbors carry the signal; BSL collapses.
  */
object Datasets {

  val restaurant: KBConfig = KBConfig(
    name = "Restaurant",
    n1 = 339, n2 = 2256, nMatches = 89,
    pName = 0.95, pNameNoise = 0.0,
    pStrong = 1.0, pDecoy = 0.0,
    nearSpread = 2,
    tokensPerEntity1 = 12, tokensPerEntity2 = 12,
    vocabSize = 600, vocabOverlap = 0.9,
    pRareToken = 0.9, rarePoolFactor = 40,
    namePool = 1000,
    attrs1 = 3, attrs2 = 3,
    rels1 = 2, rels2 = 2,
    types1 = 3, types2 = 3,
    ns1 = 2, ns2 = 2,
    avgNeighbors = 1, pEdgeNoise = 0.0,
    stopwords = 3, seed = 11)

  val rexaDblp: KBConfig = KBConfig(
    name = "Rexa-DBLP",
    n1 = 1850, n2 = 8000, nMatches = 1300,
    pName = 0.35, pNameNoise = 0.01,
    pStrong = 0.80, pDecoy = 0.75,
    nearSpread = 3,
    tokensPerEntity1 = 12, tokensPerEntity2 = 16,
    vocabSize = 3000, vocabOverlap = 0.8,
    pRareToken = 0.75, rarePoolFactor = 20,
    namePool = 2000,
    attrs1 = 8, attrs2 = 10,
    rels1 = 3, rels2 = 3,
    types1 = 4, types2 = 6,
    ns1 = 3, ns2 = 3,
    avgNeighbors = 2, pEdgeNoise = 0.05,
    stopwords = 4, seed = 12)

  val bbcmusicDbpedia: KBConfig = KBConfig(
    name = "BBCmusic-DBpedia",
    n1 = 2000, n2 = 8000, nMatches = 1500,
    pName = 0.30, pNameNoise = 0.03,
    pStrong = 0.25, pDecoy = 0.65,
    nearSpread = 4, nameSpread = 2,
    tokensPerEntity1 = 12, tokensPerEntity2 = 35,
    vocabSize = 4000, vocabOverlap = 0.5,
    pRareToken = 0.7, rarePoolFactor = 20,
    namePool = 2000,
    attrs1 = 6, attrs2 = 30,
    rels1 = 3, rels2 = 6,
    types1 = 4, types2 = 40,
    ns1 = 3, ns2 = 5,
    avgNeighbors = 3, pEdgeNoise = 0.08,
    stopwords = 4, seed = 13)

  val yagoImdb: KBConfig = KBConfig(
    name = "YAGO-IMDb",
    n1 = 4000, n2 = 4000, nMatches = 3000,
    pName = 0.50, pNameNoise = 0.03,
    pStrong = 0.05, pDecoy = 0.85,
    // Moderate spread keeps matched pairs' own value overlap weak and
    // idf-flat while 5-token decoys dominate every single-pair ranking
    // (value-only matching collapses); H3's sum over 3 mirrored neighbors
    // still accumulates enough signal to out-rank the decoys.
    decoyTokens = 5,
    nearSpread = 8, nameSpread = 3,
    tokensPerEntity1 = 8, tokensPerEntity2 = 8,
    vocabSize = 4000, vocabOverlap = 0.3,
    pRareToken = 0.75, rarePoolFactor = 20,
    // Small first/last-name pools: whole-name strings stay near-unique
    // (H1 evidence) while individual name tokens are shared by ~40
    // entities per side — weak value evidence, as in the real YAGO-IMDb.
    namePool = 200,
    attrs1 = 5, attrs2 = 4,
    rels1 = 3, rels2 = 4,
    types1 = 10, types2 = 5,
    ns1 = 2, ns2 = 1,
    avgNeighbors = 3, pEdgeNoise = 0.05,
    stopwords = 3, seed = 14)

  /** All presets at bench scale (the order matches the paper's tables). */
  val all: Seq[KBConfig] = Seq(restaurant, rexaDblp, bbcmusicDbpedia, yagoImdb)

  /** Unit-test scale: ~1/8 of bench entity counts. */
  def testScale(cfg: KBConfig): KBConfig = cfg.scaled(0.125)
}
