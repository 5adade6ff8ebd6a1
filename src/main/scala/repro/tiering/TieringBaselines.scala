package repro.tiering

import repro.core.{Assignment, OptAssignInstance, Tier}

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

  /** Rows 2–3: cache rule — Hot iff the dataset was read at least once in
    * the last `window` months before t0, else Cool.
    */
  def hotIfAccessedRecently(acc: EnterpriseSim.Account, hotIdx: Int, coolIdx: Int,
                            t0: Int, window: Int): Vector[Assignment] =
    acc.datasets.map(ds => Assignment(ds.id, if (ds.readsIn(t0 - window, t0) > 0) hotIdx else coolIdx, 0))

  /** Row 4: reuse last month's optimal tier — OPTASSIGN over `tiers` run on
    * the single month before t0 as if it predicted the future.
    */
  def prevMonthOptimal(acc: EnterpriseSim.Account, tiers: Vector[Tier],
                       hotIdx: Int, t0: Int): Vector[Assignment] = {
    val prevAccesses = acc.datasets.map(ds => ds.id -> ds.readsIn(t0 - 1, t0)).toMap
    val prevInst = Tiering.instance(acc, tiers, hotIdx, 1, prevAccesses)
    Tiering.optAssignTiers(prevInst)
  }
}
