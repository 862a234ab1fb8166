package repro.kb

import repro.SparkSpec
import repro.core._

class DatasetsSpec extends SparkSpec {

  test("there are four presets in paper order") {
    assert(Datasets.all.map(_.name) ==
      Seq("Restaurant", "Rexa-DBLP", "BBCmusic-DBpedia", "YAGO-IMDb"))
  }

  test("KB1 is never larger than KB2 (paper's driving-side convention)") {
    Datasets.all.foreach(c => assert(c.n1 <= c.n2, c.name))
  }

  test("matches fit in both KBs for every preset") {
    Datasets.all.foreach(c => assert(c.nMatches <= math.min(c.n1, c.n2), c.name))
  }

  test("heterogeneity ordering: YAGO-IMDb has the least strong-value evidence") {
    assert(Datasets.yagoImdb.pStrong < Datasets.bbcmusicDbpedia.pStrong)
    assert(Datasets.bbcmusicDbpedia.pStrong < Datasets.rexaDblp.pStrong)
    assert(Datasets.rexaDblp.pStrong < Datasets.restaurant.pStrong)
  }

  test("BBCmusic-DBpedia is the most schema-heterogeneous preset") {
    val ratio = (c: KBConfig) => c.attrs2.toDouble / c.attrs1
    assert(Datasets.all.map(ratio).max == ratio(Datasets.bbcmusicDbpedia))
  }

  for (cfg <- Datasets.all) {
    test(s"${cfg.name} generates at test scale with valid ground truth") {
      val pair = KBGen.generate(spark, Datasets.testScale(cfg))
      assert(pair.groundTruth.count() >= 6)
      assert(KB.numEntities(pair.kb1) > 0 && KB.numEntities(pair.kb2) > 0)
    }
  }

  for (cfg <- Datasets.all) {
    test(s"${cfg.name} test-scale blocking keeps recall high after purging") {
      val pair = KBGen.generate(spark, Datasets.testScale(cfg))
      val tok1 = Tokenizer.entityTokens(pair.kb1)
      val tok2 = Tokenizer.entityTokens(pair.kb2)
      val kept = TokenBlocking.purge(TokenBlocking.blocks(tok1, tok2), MinoanERParams().purgeSmooth)
      val cands = TokenBlocking.candidatePairs(tok1, tok2, kept)
      val found = pair.groundTruth.join(cands, Seq("e1", "e2"), "left_semi").count()
      // Paper reports > 99% blocking recall; small scale tolerates a bit less.
      assert(found.toDouble / pair.groundTruth.count() > 0.9, cfg.name)
    }
  }
}
