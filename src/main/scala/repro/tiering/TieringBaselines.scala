package repro.tiering

import repro.core.{Assignment, CostModel, OptAssignInstance, Tier}

/** The intuitive / caching-inspired tiering baselines of Table IV.
  * Each returns a tier assignment over the instance's datasets; benefits
  * are always evaluated against actual future accesses via
  * [[Tiering.benefitPct]].
  */
object TieringBaselines {

  /** Row 1: keep everything Hot (the platform default, and the baseline
    * every benefit is measured against): each dataset stays on its current
    * tier with its current codec, which [[Tiering.instance]] sets to Hot and
    * no compression. No tier change, Hot storage + Hot reads.
    */
  def allHot(inst: OptAssignInstance): Vector[Assignment] =
    inst.parts.map(p => Assignment(p.id, p.currentTier, p.currentCodec)).toVector

  /** The index of `tier` (by name) in `tiers`; a menu without it is rejected by name. */
  private def indexOf(tiers: Vector[Tier], tier: Tier): Int = {
    val i = tiers.indexWhere(_.name == tier.name)
    require(i >= 0, s"tier menu ${tiers.map(_.name).mkString("(", ", ", ")")} has no ${tier.name} tier")
    i
  }

  /** Rows 2–3: cache rule — Hot iff the dataset was read at least once in
    * the last `window` months before t0, else Cool; tiers index
    * [[CostModel.hotCool]].
    */
  def hotIfAccessedRecently(acc: EnterpriseSim.Account, t0: Int, window: Int): Vector[Assignment] = {
    val (hot, cool) = (indexOf(CostModel.hotCool, CostModel.Hot), indexOf(CostModel.hotCool, CostModel.Cool))
    acc.datasets.map(ds => Assignment(ds.id, if (ds.readsIn(t0 - window, t0) > 0) hot else cool, 0))
  }

  /** Row 4: reuse last month's optimal tier — OPTASSIGN over `tiers` (which
    * must hold Hot, every dataset's current tier) run on the single month
    * before t0 as if it predicted the future.
    */
  def prevMonthOptimal(acc: EnterpriseSim.Account, tiers: Vector[Tier], t0: Int): Vector[Assignment] = {
    val prevAccesses = acc.datasets.map(ds => ds.id -> ds.readsIn(t0 - 1, t0)).toMap
    val prevInst = Tiering.instance(acc, tiers, indexOf(tiers, CostModel.Hot), 1, prevAccesses)
    Tiering.optAssignTiers(prevInst)
  }
}
