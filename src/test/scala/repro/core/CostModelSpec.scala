package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CostModelSpec extends AnyFunSuite {

  /** All four Azure tiers, index 0 = lowest latency (paper's layer 0). */
  private val azure4 = Vector(CostModel.Premium, CostModel.Hot, CostModel.Cool, CostModel.Archive)

  test("Table I storage costs (cents/GB/month)") {
    assert(CostModel.Premium.storageCentsPerGBMonth == 15.0)
    assert(CostModel.Hot.storageCentsPerGBMonth == 2.08)
    assert(CostModel.Cool.storageCentsPerGBMonth == 1.52)
    assert(CostModel.Archive.storageCentsPerGBMonth == 0.099)
  }

  test("Table XII read costs are the per-GB conversion of Table I (10k x 4MB = 39.0625 GB)") {
    assert(math.abs(CostModel.Premium.readCentsPerGB - 0.182 / 39.0625) < 1e-6)
    assert(math.abs(CostModel.Hot.readCentsPerGB - 0.52 / 39.0625) < 1e-5)
    assert(math.abs(CostModel.Cool.readCentsPerGB - 1.3 / 39.0625) < 1e-4)
    assert(math.abs(CostModel.Archive.readCentsPerGB - 650.0 / 39.0625) < 1e-2)
  }

  test("storage cost strictly decreases from Premium to Archive") {
    val s = azure4.map(_.storageCentsPerGBMonth)
    assert(s == s.sorted.reverse && s.distinct.length == 4)
  }

  test("read cost strictly increases from Premium to Archive (the paper's tradeoff)") {
    val r = azure4.map(_.readCentsPerGB)
    assert(r == r.sorted && r.distinct.length == 4)
  }

  test("TTFB is non-decreasing across tiers and Archive is hours") {
    val t = azure4.map(_.ttfbSec)
    assert(t == t.sorted)
    assert(CostModel.Archive.ttfbSec == 3600.0)
  }

  test("compute cost matches Table XII") {
    assert(CostModel.computeCentsPerSec == 0.001)
  }

  test("tier menus: azure3 excludes Archive, hotCool is Hot then Cool") {
    assert(CostModel.azure3.map(_.name) == Vector("Premium", "Hot", "Cool"))
    assert(CostModel.hotCool.map(_.name) == Vector("Hot", "Cool"))
    assert(CostModel.hotCoolArchive.map(_.name) == Vector("Hot", "Cool", "Archive"))
  }

  test("tier change u == v is free") {
    for (l <- azure4.indices)
      assert(CostModel.tierChangeCents(azure4, l, l, 123.0) == 0.0)
  }

  test("tier change for new data (-1) is write-only") {
    val gb = 10.0
    assert(CostModel.tierChangeCents(azure4, -1, 1, gb) ==
      CostModel.Hot.writeCentsPerGB * gb)
  }

  test("tier change u -> v = read from u + write to v") {
    val gb = 2.0
    val c  = CostModel.tierChangeCents(azure4, 1, 2, gb)
    assert(math.abs(c - (CostModel.Hot.readCentsPerGB + CostModel.Cool.writeCentsPerGB) * gb) < 1e-12)
  }

  test("tier change cost scales linearly in GB") {
    val c1 = CostModel.tierChangeCents(azure4, 0, 3, 1.0)
    val c5 = CostModel.tierChangeCents(azure4, 0, 3, 5.0)
    assert(math.abs(c5 - 5 * c1) < 1e-9)
  }

  test("archive early-deletion period is 6 months") {
    assert(CostModel.Archive.earlyDeletionMonths == 6)
  }

  test("moving cold data hot -> archive pays off within a month (sanity of Table II economics)") {
    val save   = (CostModel.Hot.storageCentsPerGBMonth - CostModel.Archive.storageCentsPerGBMonth)
    val change = CostModel.tierChangeCents(azure4, 1, 3, 1.0)
    assert(save > change)
  }
}
