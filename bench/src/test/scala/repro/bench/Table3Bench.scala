package repro.bench

import repro.SparkSpec
import repro.kb.Datasets
import repro.report.Tables

/** Bench for the paper's Table III (matching quality, MinoanER vs baselines).
  *
  * Prints the reproduced table and pins the paper's qualitative claims:
  *
  *  - Restaurant: everything (MinoanER and BSL) reaches ~100% F1;
  *  - Rexa-DBLP: MinoanER beats BSL by a modest margin (96.0 vs 89.8);
  *  - BBCmusic-DBpedia: MinoanER ~90 F1, BSL collapses to ~50;
  *  - YAGO-IMDb: MinoanER ~91 F1, BSL collapses to single digits; the
  *    relational baselines (Sigma/Paris-style) do much better than BSL.
  */
class Table3Bench extends SparkSpec {

  private lazy val rows =
    Datasets.all.map(c => c.name -> Tables.table3Row(spark, c)).toMap

  test("print Table III") {
    println(Tables.table3(Datasets.all.map(c => rows(c.name))))
  }

  test("Restaurant: MinoanER and BSL are both near-perfect (paper: 100/100)") {
    val r = rows("Restaurant")
    assert(r.minoaner.f1 > 0.95, s"MinoanER ${r.minoaner}")
    assert(r.bsl.prf.f1 > 0.95, s"BSL ${r.bsl.prf}")
  }

  test("Rexa-DBLP: MinoanER outperforms BSL (paper: 96.0 vs 89.8)") {
    val r = rows("Rexa-DBLP")
    assert(r.minoaner.f1 > r.bsl.prf.f1, s"${r.minoaner} vs ${r.bsl.prf}")
    assert(r.minoaner.f1 > 0.85, s"MinoanER ${r.minoaner}")
  }

  test("BBCmusic-DBpedia: MinoanER strong, BSL mediocre (paper: 90.0 vs 50.7)") {
    val r = rows("BBCmusic-DBpedia")
    assert(r.minoaner.f1 > 0.75, s"MinoanER ${r.minoaner}")
    assert(r.bsl.prf.f1 < r.minoaner.f1 - 0.15, s"BSL ${r.bsl.prf}")
  }

  test("YAGO-IMDb: BSL collapses, MinoanER does not (paper: 6.9 vs 90.8)") {
    val r = rows("YAGO-IMDb")
    assert(r.minoaner.f1 > 0.75, s"MinoanER ${r.minoaner}")
    assert(r.bsl.prf.f1 < 0.55, s"BSL ${r.bsl.prf}")
    assert(r.minoaner.f1 - r.bsl.prf.f1 > 0.25)
  }

  test("MinoanER vs the baselines the paper ran, on heterogeneous datasets") {
    // The paper measured BSL and PARIS itself (SiGMa/LINDA/RiMOM numbers are
    // quoted from their publications); our SigmaLite stand-in consumes the
    // same EF-weighted sims as MinoanER and so overperforms the real SiGMa —
    // its numbers are reported but not part of this check.
    // BBCmusic-DBpedia: MinoanER dominates everything (paper: 90 vs 50.7 BSL
    // and 0.51 PARIS). YAGO-IMDb: MinoanER crushes BSL but PARIS is allowed
    // to edge it out (paper: PARIS 92 vs MinoanER 90.8 — functional,
    // exact-literal data is PARIS's home turf).
    val bbc = rows("BBCmusic-DBpedia")
    assert(bbc.bsl.prf.f1 <= bbc.minoaner.f1 + 0.02, s"bbc bsl ${bbc.bsl.prf}")
    assert(bbc.parisLite.f1 <= bbc.minoaner.f1 + 0.02, s"bbc paris ${bbc.parisLite}")
    val yago = rows("YAGO-IMDb")
    assert(yago.bsl.prf.f1 + 0.25 <= yago.minoaner.f1, s"yago bsl ${yago.bsl.prf}")
    assert(yago.parisLite.f1 - 0.07 <= yago.minoaner.f1, s"yago paris ${yago.parisLite}")
  }

  test("every heuristic contributes matches on the heterogeneous datasets") {
    for (name <- Seq("BBCmusic-DBpedia", "YAGO-IMDb")) {
      val h = rows(name).perHeuristic
      assert(h.getOrElse("H1", 0L) > 0, s"$name H1")
      assert(h.getOrElse("H3", 0L) > 0, s"$name H3")
    }
  }

  test("MinoanER precision stays high everywhere (paper: >= 91%)") {
    for ((n, r) <- rows) assert(r.minoaner.precision > 0.82, s"$n ${r.minoaner}")
  }
}
