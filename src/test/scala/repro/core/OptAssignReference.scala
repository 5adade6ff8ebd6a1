package repro.core

/** The capacity-repair heuristic as first written: options re-sorted for
  * every candidate and per-tier usage re-summed over all N assignments
  * inside the candidate loop, O(N_l·L·K·N) per eviction. Kept as the
  * differential-test oracle for [[OptAssign.greedyRepair]], which must return
  * exactly the same assignments.
  */
object OptAssignReference {

  def solve(inst: OptAssignInstance): Option[Vector[Assignment]] =
    solveScored(inst, OptAssign.costOf(inst, _, _, _))

  def solveScored(inst: OptAssignInstance,
                  score: (PartitionStat, Int, Int) => Double): Option[Vector[Assignment]] = {
    def options(p: PartitionStat) = OptAssign.feasibleOptions(inst, p, (_, q, l, k) => score(q, l, k))
    val base0 = inst.parts.map(p => options(p).headOption.map { case (l, k, _) => Assignment(p.id, l, k) })
    if (base0.exists(_.isEmpty)) return None
    val base = base0.map(_.get)
    val assign = scala.collection.mutable.Map.from(base.map(a => a.id -> a))
    val byId   = inst.parts.map(p => p.id -> p).toMap

    def used(l: Int): Double =
      assign.valuesIterator.filter(_.tier == l).map(a => OptAssign.storedGB(byId(a.id), a.codec)).sum

    var guard = 0
    val maxIters = inst.parts.size * inst.tiers.size * 4 + 16
    while (guard < maxIters) {
      guard += 1
      val over = inst.tiers.indices.find(l => used(l) > inst.capacityGB(l) + 1e-9)
      over match {
        case None => return Some(assign.values.toVector.sortBy(_.id))
        case Some(l) =>
          // Candidate moves out of the overfull tier l.
          val candidates = for {
            a <- assign.values.toVector if a.tier == l
            p = byId(a.id)
            (l2, k2, c2) <- options(p)
            if l2 != l
            if used(l2) + OptAssign.storedGB(p, k2) <= inst.capacityGB(l2) + 1e-9
          } yield {
            val cur = score(p, a.tier, a.codec)
            val freed = OptAssign.storedGB(p, a.codec)
            (a.id, l2, k2, (c2 - cur) / math.max(freed, 1e-12))
          }
          if (candidates.isEmpty) return None // cannot repair: instance infeasible for this heuristic
          val (id, l2, k2, _) = candidates.minBy(_._4)
          assign(id) = Assignment(id, l2, k2)
      }
    }
    None
  }
}
