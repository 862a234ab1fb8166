package repro.core

import org.apache.spark.sql.DataFrame

/** The schema-agnostic blocking front end of one KB pair: each KB's
  * predicate statistics (one pass) with its name attributes and top
  * relations, names and the name blocks B_N, tokens and the token blocks B_T
  * before and after Block Purging. MinoanER, the BSL baseline and Table II
  * read the same block collections, so all three build them here.
  *
  * Every member is lazy and no frame is cached. A caller that reads a frame
  * more than once caches it in place (`Dataset.cache()` returns the same
  * frame) before the members derived from it are first read; which frames
  * `MinoanER.resolve` caches is decided there alone.
  */
final class Blocking(kb1: DataFrame, kb2: DataFrame, params: MinoanERParams) {

  private lazy val stats1 = AttributeStats.of(kb1)
  private lazy val stats2 = AttributeStats.of(kb2)

  lazy val nameAttrs1: Seq[String] = AttributeStats.top(stats1, relation = false, params.k)
  lazy val nameAttrs2: Seq[String] = AttributeStats.top(stats2, relation = false, params.k)
  lazy val topRels1: Seq[String] = AttributeStats.top(stats1, relation = true, params.N)
  lazy val topRels2: Seq[String] = AttributeStats.top(stats2, relation = true, params.N)

  lazy val names1: DataFrame = NameBlocking.names(kb1, nameAttrs1)  // (eid, name)
  lazy val names2: DataFrame = NameBlocking.names(kb2, nameAttrs2)

  /** B_N: (name, n1, n2, comparisons). */
  lazy val nameBlocks: DataFrame = NameBlocking.blocks(names1, names2)

  lazy val tokens1: DataFrame = Tokenizer.entityTokens(kb1)  // (eid, token)
  lazy val tokens2: DataFrame = Tokenizer.entityTokens(kb2)

  /** B_T before purging: (token, n1, n2, comparisons). */
  lazy val tokenBlocksAll: DataFrame = TokenBlocking.blocks(tokens1, tokens2)

  /** B_T after Block Purging. Reading it runs the purge histogram job. */
  lazy val tokenBlocks: DataFrame = TokenBlocking.purge(tokenBlocksAll, params.purgeSmooth)

  /** (e1, e2): every pair that shares a block of B_N or of the purged B_T. */
  lazy val candidatePairs: DataFrame =
    NameBlocking.candidatePairs(names1, names2)
      .union(TokenBlocking.candidatePairs(tokens1, tokens2, tokenBlocks))
      .distinct()
}
