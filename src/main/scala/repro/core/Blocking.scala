package repro.core

import org.apache.spark.sql.DataFrame

/** The schema-agnostic blocking front end of one KB pair: the predicate
  * statistics of both KBs (one pass) with their name attributes and top
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

  lazy val tokens1: DataFrame = Tokenizer.entityTokens(kb1)  // (eid, token)
  lazy val tokens2: DataFrame = Tokenizer.entityTokens(kb2)

  /** B_T before purging: (token, n1, n2, comparisons). */
  lazy val tokenBlocksAll: DataFrame = TokenBlocking.blocks(tokens1, tokens2)

  /** The front end's two driver actions, which are independent: the
    * statistics of both KBs and the purge histogram. The first member that
    * needs either runs both at the same time. This is the one initializer
    * that runs Spark jobs; it holds the instance's lock until both end, and
    * its forked branch reads no lazy member, so it never waits on that lock.
    */
  private lazy val actions: (Seq[Seq[PredStats]], DataFrame) = {
    val all = tokenBlocksAll
    Parallel.both(AttributeStats.ofEach(Seq(kb1, kb2)), TokenBlocking.purge(all, params.purgeSmooth))
  }

  lazy val nameAttrs1: Seq[String] = AttributeStats.top(actions._1(0), relation = false, params.k)
  lazy val nameAttrs2: Seq[String] = AttributeStats.top(actions._1(1), relation = false, params.k)
  lazy val topRels1: Seq[String] = AttributeStats.top(actions._1(0), relation = true, params.N)
  lazy val topRels2: Seq[String] = AttributeStats.top(actions._1(1), relation = true, params.N)

  lazy val names1: DataFrame = NameBlocking.names(kb1, nameAttrs1)  // (eid, name)
  lazy val names2: DataFrame = NameBlocking.names(kb2, nameAttrs2)

  /** B_N: (name, n1, n2, comparisons). */
  lazy val nameBlocks: DataFrame = NameBlocking.blocks(names1, names2)

  /** B_T after Block Purging. */
  lazy val tokenBlocks: DataFrame = actions._2

  /** (e1, e2): every pair that shares a block of B_N or of the purged B_T. */
  lazy val candidatePairs: DataFrame =
    NameBlocking.candidatePairs(names1, names2)
      .union(TokenBlocking.candidatePairs(tokens1, tokens2, tokenBlocks))
      .distinct()
}
