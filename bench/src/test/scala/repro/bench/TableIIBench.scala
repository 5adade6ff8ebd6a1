package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.ExpTiering

/** Table II: % cost benefits of OPTASSIGN (K=0) for 4 PB-scale customer
  * accounts over 2- and 6-month horizons, vs the all-Hot platform baseline.
  */
class TableIIBench extends AnyFunSuite with BenchBase {

  // (customer, sizePB, benefit 2 months %, benefit 6 months %)
  private val paper = Vector(
    ("Customer A", 0.56, 10.59, 61.6),
    ("Customer B", 0.45, 8.0, 53.72),
    ("Customer C", 0.053, 11.58, 83.69),
    ("Customer D", 0.085, 9.93, 49.6),
  )

  test("Table II: % cost benefit per customer account") {
    banner("Table II", "OPTASSIGN (K=0) % cost benefit over all-Hot; projected accesses, billed on actual")
    val rows = ExpTiering.tableII()
    rows.zip(paper).foreach { case (r, (name, _, _, _)) => assert(r.customer == name) }
    printBeside(f"${"paper 2mo"}%9s ${"paper 6mo"}%9s" +: paper.map { case (_, _, p2, p6) => f"$p2%9.2f $p6%9.2f" },
      ExpTiering.formatII(rows))
    // Shape: positive 2-month single-digit-to-teens benefit, 6-month benefit
    // several times larger (Archive unlocked), both under 100%.
    rows.foreach { r =>
      assert(r.benefit2mo > 5 && r.benefit2mo < 30, s"${r.customer} 2mo ${r.benefit2mo}")
      assert(r.benefit6mo > 2 * r.benefit2mo, s"${r.customer} 6mo must dwarf 2mo")
      assert(r.benefit6mo > 30 && r.benefit6mo < 100, s"${r.customer} 6mo ${r.benefit6mo}")
    }
  }
}
