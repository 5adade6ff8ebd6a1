package repro.core

/** The capacity-repair heuristic as first written: options re-sorted for
  * every candidate and per-tier usage re-summed over all N assignments
  * inside the candidate loop, O(N_l·L·K·N) per eviction. Kept as the
  * differential-test oracle for [[OptAssign.greedyRepair]], which must return
  * exactly the same assignments. Assignments are kept in instance order: of
  * two equally cheap moves the earlier partition's is taken, and per-tier
  * usage is summed in that order.
  *
  * Also the eq. (1) arithmetic as first written, each formula working out its
  * own stored GB and decompression time: the oracle for [[OptAssign.costOf]],
  * [[OptAssign.latencyOk]], [[Scope.latencyLexScore]] and [[Scope.report]],
  * which must agree with it bit for bit.
  */
object OptAssignReference {

  def costOf(inst: OptAssignInstance, p: PartitionStat, l: Int, k: Int): Double = {
    val t        = inst.tiers(l)
    val perf     = p.codecPerfs(k)
    val storedGB = p.sizeGB / perf.ratio
    val w        = inst.weights
    val storage  = w.alpha * t.storageCentsPerGBMonth * inst.months * storedGB
    val change   = w.gamma * CostModel.tierChangeCents(inst.tiers, p.currentTier, l, storedGB)
    val decompT  = perf.decompSecPerGB * p.sizeGB
    val access   = w.beta * p.accesses *
      (CostModel.computeCentsPerSec * decompT + t.readCentsPerGB * storedGB)
    storage + change + access
  }

  def latencyOk(inst: OptAssignInstance, p: PartitionStat, l: Int, k: Int): Boolean =
    p.codecPerfs(k).decompSecPerGB * p.sizeGB + inst.tiers(l).ttfbSec <= p.latencySlaSec

  def latencyLexScore(inst: OptAssignInstance, p: PartitionStat, l: Int, k: Int): Double =
    math.max(p.accesses, 1.0) *
      (p.codecPerfs(k).decompSecPerGB * p.sizeGB + inst.tiers(l).ttfbSec) * 1e6 +
      costOf(inst, p, l, k)

  def report(v: Scope.Variant, inst: OptAssignInstance, chosen: Seq[Assignment],
             months: Double): Scope.PolicyReport = {
    val byId = inst.parts.map(p => p.id -> p).toMap
    var storage, decomp, read = 0.0
    var ttfbW, decompW, rhoSum = 0.0
    val counts = scala.collection.mutable.Map.empty[String, Int]
    for (a <- chosen) {
      val p        = byId(a.id)
      val t        = inst.tiers(a.tier)
      val perf     = p.codecPerfs(a.codec)
      val storedGB = p.sizeGB / perf.ratio
      val decompT  = perf.decompSecPerGB * p.sizeGB
      storage += t.storageCentsPerGBMonth * months * storedGB +
        CostModel.tierChangeCents(inst.tiers, p.currentTier, a.tier, storedGB)
      decomp += p.accesses * CostModel.computeCentsPerSec * decompT
      read   += p.accesses * t.readCentsPerGB * storedGB
      ttfbW   += p.accesses * t.ttfbSec
      decompW += p.accesses * decompT
      rhoSum  += p.accesses
      counts.update(t.name, counts.getOrElse(t.name, 0) + 1)
    }
    Scope.PolicyReport(v.label, v.adapts, storage, decomp, read,
      if (rhoSum > 0) ttfbW / rhoSum else 0.0,
      if (rhoSum > 0) decompW / rhoSum * 1000.0 else 0.0,
      counts.toMap)
  }

  def solve(inst: OptAssignInstance): Option[Vector[Assignment]] =
    solveScored(inst, OptAssign.costOf(inst, _, _, _))

  def solveScored(inst: OptAssignInstance,
                  score: (PartitionStat, Int, Int) => Double): Option[Vector[Assignment]] = {
    def options(p: PartitionStat) = OptAssign.feasibleOptions(inst, p, (_, q, l, k) => score(q, l, k))
    val base0 = inst.parts.map(p => options(p).headOption.map { case (l, k, _) => Assignment(p.id, l, k) })
    if (base0.exists(_.isEmpty)) return None
    val assign = base0.map(_.get).toArray
    val byId   = inst.parts.map(p => p.id -> p).toMap

    def used(l: Int): Double =
      assign.iterator.filter(_.tier == l).map(a => OptAssign.storedGB(byId(a.id), a.codec)).sum

    var guard = 0
    val maxIters = inst.parts.size * inst.tiers.size * 4 + 16
    while (guard < maxIters) {
      guard += 1
      val over = inst.tiers.indices.find(l => used(l) > inst.capacityGB(l) + 1e-9)
      over match {
        case None => return Some(assign.toVector.sortBy(_.id))
        case Some(l) =>
          // Candidate moves out of the overfull tier l.
          val candidates = for {
            (a, i) <- assign.toVector.zipWithIndex if a.tier == l
            p = byId(a.id)
            (l2, k2, c2) <- options(p)
            if l2 != l
            if used(l2) + OptAssign.storedGB(p, k2) <= inst.capacityGB(l2) + 1e-9
          } yield {
            val cur = score(p, a.tier, a.codec)
            val freed = OptAssign.storedGB(p, a.codec)
            (i, l2, k2, (c2 - cur) / math.max(freed, 1e-12))
          }
          if (candidates.isEmpty) return None // cannot repair: instance infeasible for this heuristic
          val (i, l2, k2, _) = candidates.minBy(_._4)
          assign(i) = Assignment(assign(i).id, l2, k2)
      }
    }
    None
  }
}
