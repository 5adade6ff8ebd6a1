package repro.tiering

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CostModel

class TieringBaselinesSpec extends AnyFunSuite {

  private lazy val acc = EnterpriseSim.account("b", nDatasets = 80, totalPB = 0.02,
    nMonths = 16, seed = 98)
  private val t0 = 12
  private lazy val inst = Tiering.instance(acc, CostModel.hotCool, 0, 2,
    Tiering.knownAccesses(acc, t0, 2))

  test("allHot assigns every dataset to the hot index") {
    assert(TieringBaselines.allHot(inst).forall(_.tier == 0))
  }

  test("hotIfAccessedRecently: recently-read datasets stay Hot, others go Cool") {
    val a = TieringBaselines.hotIfAccessedRecently(acc, t0, window = 2)
    val byId = a.map(x => x.id -> x.tier).toMap
    acc.datasets.foreach { ds =>
      val recent = (t0 - 2 until t0).map(ds.reads).sum
      assert(byId(ds.id) == (if (recent > 0) 0 else 1))
    }
  }

  test("a wider recency window keeps at least as many datasets Hot") {
    val w1 = TieringBaselines.hotIfAccessedRecently(acc, t0, 1).count(_.tier == 0)
    val w2 = TieringBaselines.hotIfAccessedRecently(acc, t0, 2).count(_.tier == 0)
    assert(w2 >= w1)
  }

  test("prevMonthOptimal covers all datasets with valid tiers") {
    val a = TieringBaselines.prevMonthOptimal(acc, CostModel.hotCool, t0)
    assert(a.length == acc.datasets.length)
    assert(a.forall(x => x.tier >= 0 && x.tier < inst.tiers.length))
  }

  test("prevMonthOptimal sends datasets unread last month to Cool") {
    val a = TieringBaselines.prevMonthOptimal(acc, CostModel.hotCool, t0).map(x => x.id -> x.tier).toMap
    acc.datasets.filter(_.reads(t0 - 1) == 0).foreach(ds => assert(a(ds.id) == 1))
  }

  test("prevMonthOptimal finds Hot anywhere in the menu and names a menu without it") {
    val coolFirst = TieringBaselines.prevMonthOptimal(acc, Vector(CostModel.Cool, CostModel.Hot), t0)
    val hotFirst  = TieringBaselines.prevMonthOptimal(acc, CostModel.hotCool, t0)
    assert(coolFirst.map(a => a.id -> (1 - a.tier)) == hotFirst.map(a => a.id -> a.tier))
    val e = intercept[IllegalArgumentException](
      TieringBaselines.prevMonthOptimal(acc, Vector(CostModel.Premium, CostModel.Cool), t0))
    assert(e.getMessage.contains("(Premium, Cool)") && e.getMessage.contains("no Hot tier"), e.getMessage)
  }
}
