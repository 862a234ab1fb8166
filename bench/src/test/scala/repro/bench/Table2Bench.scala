package repro.bench

import repro.SparkSpec
import repro.kb.Datasets
import repro.report.Tables

/** Bench for the paper's Table II (block statistics).
  *
  * Prints the reproduced table and pins the paper's qualitative findings:
  * token blocks suggest far more comparisons than name blocks, both are
  * orders of magnitude below the Cartesian product, blocking recall stays
  * high while blocking precision is very low.
  */
class Table2Bench extends SparkSpec {

  private lazy val rows = Datasets.all.map(c => Tables.table2Row(spark, c))

  test("print Table II") {
    println(Tables.table2(rows))
  }

  test("token-block comparisons exceed name-block comparisons (paper: >= 1 order)") {
    for (r <- rows) assert(r.btComparisons > r.bnComparisons, r.name)
  }

  test("total block comparisons are far below the Cartesian product") {
    for (r <- rows)
      assert((r.bnComparisons + r.btComparisons) * 10 < r.cartesian, r.name)
  }

  test("blocking recall is high on every dataset (paper: > 99%)") {
    for (r <- rows) assert(r.blocking.recall > 0.95, s"${r.name}: ${r.blocking}")
  }

  test("blocking precision is very low (paper: <= 5%)") {
    for (r <- rows) assert(r.blocking.precision < 0.05, s"${r.name}: ${r.blocking}")
  }

  test("blocking F1 is far below matching-quality levels") {
    for (r <- rows) assert(r.blocking.f1 < 0.5, r.name)
  }
}
