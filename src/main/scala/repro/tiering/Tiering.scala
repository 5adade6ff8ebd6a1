package repro.tiering

import repro.core._

/** Bridges the enterprise simulator to OPTASSIGN with K = 0 (tiering only),
  * exactly the Section IV-C setting: datasets are the partitions, the
  * platform baseline keeps everything Hot, and the projected number of
  * accesses over the billing horizon drives the tier choice.
  */
object Tiering {

  /** SLA: a dataset expected to be read must be servable in minutes, which
    * rules out Archive (TTFB 1 h); unread data has no latency requirement.
    */
  val accessedSlaSec: Double = 120.0

  /** Builds the OPTASSIGN instance (K = 0) for an account at month t0.
    *
    * @param tiers     tier menu for the run (e.g. CostModel.hotCool);
    *                  Archive is only ever offered when horizon >= its
    *                  6-month early-deletion period
    * @param hotIdx    index of Hot within `tiers` (the current tier of all
    *                  datasets — platform default)
    * @param accesses  projected accesses per dataset id (predicted or known)
    */
  def instance(acc: EnterpriseSim.Account, tiers: Vector[Tier], hotIdx: Int,
               horizon: Int, accesses: Map[Int, Double]): OptAssignInstance = {
    val usable =
      if (tiers.exists(_.name == "Archive") && horizon < CostModel.Archive.earlyDeletionMonths)
        tiers.filterNot(_.name == "Archive")
      else tiers
    val parts = acc.datasets.map { ds =>
      val rho = accesses.getOrElse(ds.id, 0.0)
      PartitionStat(
        id = ds.id,
        sizeGB = ds.sizeGB,
        accesses = rho,
        latencySlaSec = if (rho > 0) accessedSlaSec else Double.PositiveInfinity,
        currentTier = hotIdx,
        currentCodec = 0,
        codecPerfs = Vector(CodecPerf.identity),
      )
    }
    OptAssignInstance(parts, usable, Vector.fill(usable.length)(Double.PositiveInfinity),
      CostWeights(), months = horizon.toDouble)
  }

  /** Known (ground-truth) projected accesses for [t0, t0+horizon). */
  def knownAccesses(acc: EnterpriseSim.Account, t0: Int, horizon: Int): Map[Int, Double] =
    acc.datasets.map(ds => ds.id -> ds.readsIn(t0, t0 + horizon)).toMap

  /** Evaluates an assignment against the *actual* future accesses (the
    * paper's "% benefit after making errors"): predictions choose the tier,
    * reality bills it.
    */
  def actualCost(inst: OptAssignInstance, assignment: Seq[Assignment],
                 actualAccesses: Map[Int, Double]): Double = {
    val billed = inst.copy(parts = inst.parts.map(p =>
      p.copy(accesses = actualAccesses.getOrElse(p.id, 0.0),
             latencySlaSec = Double.PositiveInfinity)))
    OptAssign.totalCost(billed, assignment)
  }

  /** % cost benefit of `assignment` over the instance's own placement
    * (all-Hot, see [[TieringBaselines.allHot]]) under actual accesses.
    */
  def benefitPct(inst: OptAssignInstance, assignment: Seq[Assignment],
                 actualAccesses: Map[Int, Double]): Double = {
    val base = actualCost(inst, TieringBaselines.allHot(inst), actualAccesses)
    val got  = actualCost(inst, assignment, actualAccesses)
    (base - got) / base * 100.0
  }

  /** OPTASSIGN's tier choice per dataset (with no capacity bounds this is
    * Theorem 3's greedy).
    *
    * @throws IllegalArgumentException if no plan meets the instance's
    *         constraints, with [[OptAssign.infeasibility]]'s explanation
    */
  def optAssignTiers(inst: OptAssignInstance): Vector[Assignment] =
    OptAssign.solve(inst).getOrElse(
      throw new IllegalArgumentException(s"tiering instance infeasible: ${OptAssign.infeasibility(inst)}"))
}
