package repro.tiering

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class TieringSpec extends AnyFunSuite {

  private lazy val acc = EnterpriseSim.account("t", nDatasets = 120, totalPB = 0.05,
    nMonths = 18, seed = 96)
  private val t0 = 12

  test("instance: one partition per dataset, identity codec, Hot as current tier") {
    val inst = Tiering.instance(acc, CostModel.hotCool, hotIdx = 0, horizon = 2,
      Tiering.knownAccesses(acc, t0, 2))
    assert(inst.parts.length == acc.datasets.length)
    assert(inst.parts.forall(p => p.codecPerfs == Vector(CodecPerf.identity)))
    assert(inst.parts.forall(_.currentTier == 0))
    assert(inst.months == 2.0)
  }

  test("Archive is excluded when the horizon is below its early-deletion period") {
    val inst = Tiering.instance(acc, CostModel.hotCoolArchive, hotIdx = 0, horizon = 2,
      Map.empty)
    assert(!inst.tiers.exists(_.name == "Archive"))
    val inst6 = Tiering.instance(acc, CostModel.hotCoolArchive, hotIdx = 0, horizon = 6,
      Map.empty)
    assert(inst6.tiers.exists(_.name == "Archive"))
  }

  test("accessed datasets carry the SLA; unaccessed ones do not") {
    val accesses = Map(acc.datasets.head.id -> 5.0)
    val inst = Tiering.instance(acc, CostModel.hotCool, 0, 2, accesses)
    assert(inst.parts.find(_.id == acc.datasets.head.id).get.latencySlaSec ==
      Tiering.accessedSlaSec)
    assert(inst.parts.find(_.id == acc.datasets(1).id).get.latencySlaSec.isPosInfinity)
  }

  test("readsIn sums the horizon window only") {
    val ds = acc.datasets.maxBy(_.reads.sum)
    assert(ds.readsIn(t0, t0 + 2) == ds.reads(t0) + ds.reads(t0 + 1))
  }

  test("readsIn clips the window to the timeline") {
    val ds = acc.datasets.maxBy(_.reads.sum)
    assert(ds.readsIn(-3, 2) == ds.reads(0) + ds.reads(1))
    assert(ds.readsIn(16, 40) == ds.reads(16) + ds.reads(17))
    assert(ds.readsIn(20, 30) == 0.0 && ds.readsIn(5, 5) == 0.0)
  }

  test("all-Hot baseline has zero benefit") {
    val known = Tiering.knownAccesses(acc, t0, 2)
    val inst = Tiering.instance(acc, CostModel.hotCool, 0, 2, known)
    val b = Tiering.benefitPct(inst, TieringBaselines.allHot(inst), known)
    assert(math.abs(b) < 1e-9)
  }

  test("OptAssign with known accesses is the best achievable single-assignment policy") {
    val known = Tiering.knownAccesses(acc, t0, 4)
    val inst = Tiering.instance(acc, CostModel.hotCool, 0, 4, known)
    val opt = Tiering.optAssignTiers(inst)
    val optBenefit = Tiering.benefitPct(inst, opt, known)
    // any rule-based assignment must be no better
    for (w <- Seq(1, 2)) {
      val rule = TieringBaselines.hotIfAccessedRecently(acc, t0, w)
      assert(Tiering.benefitPct(inst, rule, known) <= optBenefit + 1e-9)
    }
    val prev = TieringBaselines.prevMonthOptimal(acc, CostModel.hotCool, t0)
    assert(Tiering.benefitPct(inst, prev, known) <= optBenefit + 1e-9)
    assert(optBenefit > 0, "skewed workloads must leave tiering savings on the table")
  }

  test("never-accessed datasets go to the cheapest allowed tier over 6 months") {
    val known = Tiering.knownAccesses(acc, t0, 6)
    val inst = Tiering.instance(acc, CostModel.hotCoolArchive, 0, 6, known)
    val opt = Tiering.optAssignTiers(inst).map(a => a.id -> a.tier).toMap
    val archiveIdx = inst.tiers.indexWhere(_.name == "Archive")
    acc.datasets.filter(ds => known(ds.id) == 0).foreach { ds =>
      assert(opt(ds.id) == archiveIdx, s"cold dataset ${ds.id} should be archived")
    }
  }

  test("accessed datasets never land in Archive (SLA)") {
    val known = Tiering.knownAccesses(acc, t0, 6)
    val inst = Tiering.instance(acc, CostModel.hotCoolArchive, 0, 6, known)
    val opt = Tiering.optAssignTiers(inst).map(a => a.id -> a.tier).toMap
    val archiveIdx = inst.tiers.indexWhere(_.name == "Archive")
    acc.datasets.filter(ds => known(ds.id) > 0).foreach(ds => assert(opt(ds.id) != archiveIdx))
  }

  test("longer horizons yield larger benefits (amortized tier-change cost)") {
    def benefit(h: Int): Double = {
      val known = Tiering.knownAccesses(acc, t0, h)
      val inst = Tiering.instance(acc, CostModel.hotCool, 0, h, known)
      Tiering.benefitPct(inst, Tiering.optAssignTiers(inst), known)
    }
    assert(benefit(2) <= benefit(4) + 1e-9)
    assert(benefit(4) <= benefit(6) + 1e-9)
  }

  test("adding Archive to the menu can only help (6-month horizon)") {
    val known = Tiering.knownAccesses(acc, t0, 6)
    val instHC = Tiering.instance(acc, CostModel.hotCool, 0, 6, known)
    val instHCA = Tiering.instance(acc, CostModel.hotCoolArchive, 0, 6, known)
    val bHC = Tiering.benefitPct(instHC, Tiering.optAssignTiers(instHC), known)
    val bHCA = Tiering.benefitPct(instHCA, Tiering.optAssignTiers(instHCA), known)
    assert(bHCA >= bHC - 1e-9)
  }

  test("optAssignTiers returns only feasible plans, even with a binding Hot capacity") {
    val known = Tiering.knownAccesses(acc, t0, 2)
    val inst  = Tiering.instance(acc, CostModel.hotCool, 0, 2, known)
    val sizeOf = inst.parts.map(p => p.id -> p.sizeGB).toMap
    val hotGB  = Tiering.optAssignTiers(inst).filter(_.tier == 0).map(a => sizeOf(a.id)).sum
    assert(hotGB > 0)
    val capped = inst.copy(capacityGB = Vector(hotGB / 2, Double.PositiveInfinity))
    assert(OptAssign.feasible(capped, Tiering.optAssignTiers(capped)))
    val noTierFast = inst.copy(parts = inst.parts.map(_.copy(latencySlaSec = 1e-6)))
    val e = intercept[IllegalArgumentException](Tiering.optAssignTiers(noTierFast))
    val fastest = inst.tiers.map(_.ttfbSec).min
    assert(e.getMessage.contains(s"partition ${acc.datasets.head.id} (SLA 1.0E-6 s, fastest option $fastest s)"),
      e.getMessage)
    assert(e.getMessage.endsWith(s" and ${acc.datasets.length - 5} more partitions"), e.getMessage)
  }

  test("actualCost bills the assignment under actual, not predicted, accesses") {
    val inst = Tiering.instance(acc, CostModel.hotCool, 0, 2, Map.empty) // predicted: nothing
    val assignment = TieringBaselines.allHot(inst)
    val zero = Tiering.actualCost(inst, assignment, Map.empty)
    val busy = Tiering.actualCost(inst, assignment,
      acc.datasets.map(_.id -> 100.0).toMap)
    assert(busy > zero)
  }
}
