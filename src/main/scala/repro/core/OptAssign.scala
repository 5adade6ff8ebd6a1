package repro.core

import scala.collection.mutable

/** Predicted compression performance of one codec on one partition.
  *
  * @param ratio         R^k_n — compression ratio (rawBytes / compressedBytes), >= 1 typically
  * @param decompSecPerGB D̂ — decompression time per GB of *raw* data; the
  *                       absolute decompression time D^k_n for a partition is
  *                       decompSecPerGB * rawSizeGB
  */
final case class CodecPerf(ratio: Double, decompSecPerGB: Double) {
  require(ratio > 0, s"compression ratio must be positive, got $ratio")
}

object CodecPerf {
  /** The paper's mandatory "no compression" option: R = 1, D = 0. */
  val identity: CodecPerf = CodecPerf(1.0, 0.0)
}

/** One data partition as seen by OPTASSIGN.
  *
  * @param id           stable identifier (index into the instance)
  * @param sizeGB       Sp(P_n), raw size in GB
  * @param accesses     rho(P_n) — projected number of accesses over the billing period
  * @param latencySlaSec T(P_n) — maximum tolerated (TTFB + decompression) latency
  * @param currentTier  L(P_n) — current tier index, or -1 for newly ingested data
  * @param currentCodec K(P_n) — codec already applied (existing partitions may
  *                     not change codec, per the ILP's last constraint); -1 if new
  * @param codecPerfs   per-codec predicted performance; index 0 MUST be the
  *                     "no compression" identity codec
  */
final case class PartitionStat(
    id: Int,
    sizeGB: Double,
    accesses: Double,
    latencySlaSec: Double,
    currentTier: Int,
    currentCodec: Int,
    codecPerfs: IndexedSeq[CodecPerf],
) {
  require(sizeGB >= 0, s"partition $id: sizeGB must be a non-negative number, got $sizeGB")
  require(accesses >= 0, s"partition $id: accesses must be a non-negative number, got $accesses")
  require(codecPerfs.nonEmpty, s"partition $id: codecPerfs must hold at least the identity codec")
}

/** A solved assignment: partition `id` goes to `tier` with codec `codec`. */
final case class Assignment(id: Int, tier: Int, codec: Int)

/** An OPTASSIGN problem instance.
  *
  * @param parts      the N partitions
  * @param tiers      the L tiers (index 0 = lowest latency)
  * @param capacityGB S_l per tier, in *stored* (post-compression) GB;
  *                   Double.PositiveInfinity = unbounded
  * @param weights    alpha/beta/gamma objective weights
  * @param months     billing-period length (storage accrues per month)
  */
final case class OptAssignInstance(
    parts: IndexedSeq[PartitionStat],
    tiers: IndexedSeq[Tier],
    capacityGB: IndexedSeq[Double],
    weights: CostWeights = CostWeights(),
    months: Double = 1.0,
) {
  require(capacityGB.length == tiers.length, "one capacity per tier")
  require(capacityGB.forall(_ >= 0),
    s"capacities must be non-negative numbers (GB or +Infinity), got ${capacityGB.mkString(", ")}")
}

/** OPTASSIGN (Section IV): choose a tier and compression scheme per partition
  * minimizing eq. (1) subject to capacity and latency constraints.
  *
  * Strongly NP-hard in general (Theorem 1); this object provides
  *  - [[costOf]]: the eq. (1) objective contribution of one (partition, tier, codec)
  *  - [[greedyUnbounded]]: the optimal greedy for unbounded capacity (Theorem 3)
  *  - [[solve]]: greedy + capacity-repair heuristic for the general case
  *    (cross-checked against the exact [[IlpSolver]] in tests)
  */
object OptAssign {

  /** Eq. (1) objective contribution of assigning partition `p` to tier `l`
    * with codec `k`:
    * (alpha*C^s_l*months + gamma*Delta_{L(p),l}) * Sp/R  +
    * beta*rho * (C^c * D + C^r_l * Sp/R).
    */
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

  /** Latency feasibility of (partition, tier, codec): D^k_n + B_l <= T(P_n). */
  def latencyOk(inst: OptAssignInstance, p: PartitionStat, l: Int, k: Int): Boolean =
    p.codecPerfs(k).decompSecPerGB * p.sizeGB + inst.tiers(l).ttfbSec <= p.latencySlaSec

  /** Codec feasibility: existing partitions keep their codec (last ILP constraint). */
  def codecOk(p: PartitionStat, k: Int): Boolean =
    p.currentTier < 0 || p.currentCodec < 0 || k == p.currentCodec

  /** All latency- and codec-feasible (tier, codec) options of a partition,
    * cheapest first.
    */
  def feasibleOptions(inst: OptAssignInstance, p: PartitionStat): IndexedSeq[(Int, Int, Double)] =
    feasibleOptionsScored(inst, p, costOf(inst, _, _, _))

  /** Like [[feasibleOptions]] but ordered by an arbitrary score — used by
    * the latency-lexicographic SCOPe variants (HCompress-style rows).
    */
  def feasibleOptionsScored(inst: OptAssignInstance, p: PartitionStat,
                            score: (PartitionStat, Int, Int) => Double): IndexedSeq[(Int, Int, Double)] =
    (for {
      l <- inst.tiers.indices
      k <- p.codecPerfs.indices
      if codecOk(p, k) && latencyOk(inst, p, l, k)
    } yield (l, k, score(p, l, k))).sortBy(_._3)

  /** Theorem 3: with no capacity constraints, independently picking the
    * cheapest feasible (tier, codec) per partition is optimal. O(N*L*K).
    * Returns None if some partition has no latency-feasible option.
    */
  def greedyUnbounded(inst: OptAssignInstance): Option[Vector[Assignment]] = {
    val picks = inst.parts.map { p =>
      feasibleOptions(inst, p).headOption.map { case (l, k, _) => Assignment(p.id, l, k) }
    }
    if (picks.forall(_.isDefined)) Some(picks.map(_.get).toVector) else None
  }

  /** Stored (post-compression) GB of partition `p` under codec `k`. */
  def storedGB(p: PartitionStat, k: Int): Double = p.sizeGB / p.codecPerfs(k).ratio

  /** General-case heuristic: start from the unbounded greedy, then while a
    * tier is over its capacity, evict from it the partition whose move to
    * its next-cheapest feasible tier with spare capacity costs the least
    * extra per GB freed. Exact on all instances where capacity is slack
    * (then it IS the greedy), and cross-checked against branch-and-bound in
    * tests elsewhere.
    *
    * Cost: O(N·L·K·log(L·K)) once to sort every partition's options, then
    * O(N + N_l·L·K) per eviction, where N_l is the number of partitions in
    * the overfull tier.
    */
  def solve(inst: OptAssignInstance): Option[Vector[Assignment]] =
    solveScored(inst, costOf(inst, _, _, _))

  /** [[solve]] with a custom per-option score (capacity repair still frees
    * stored GB; the score only drives preference order).
    */
  def solveScored(inst: OptAssignInstance,
                  score: (PartitionStat, Int, Int) => Double): Option[Vector[Assignment]] = {
    val options = inst.parts.map(p => feasibleOptionsScored(inst, p, score))
    if (options.exists(_.isEmpty)) return None
    // Partitions are visited in the iteration order of a mutable map keyed by
    // id (the last partition of an id wins). Eviction ties go to the first
    // candidate in that order, and per-tier usage is summed in it, so the
    // order is part of the answer; ids need not be contiguous.
    val slots  = mutable.Map.from(inst.parts.indices.map(i => inst.parts(i).id -> i)).valuesIterator.toArray
    val parts  = slots.map(inst.parts)
    val opts   = slots.map(options)
    val tier   = opts.map(_.head._1)
    val codec  = opts.map(_.head._2)
    val caps   = inst.capacityGB
    val used   = new Array[Double](inst.tiers.size)
    val byCost = Ordering.Double.TotalOrdering

    var guard = 0
    val maxIters = inst.parts.size * inst.tiers.size * 4 + 16
    while (guard < maxIters) {
      guard += 1
      java.util.Arrays.fill(used, 0.0)
      for (i <- slots.indices) used(tier(i)) += storedGB(parts(i), codec(i))
      inst.tiers.indices.find(l => used(l) > caps(l) + 1e-9) match {
        case None =>
          return Some(slots.indices.map(i => Assignment(parts(i).id, tier(i), codec(i))).toVector.sortBy(_.id))
        case Some(l) =>
          // The cheapest move (extra score per GB freed) out of the overfull
          // tier l into a tier with spare capacity; the first one wins ties.
          var best = -1; var bestTier = -1; var bestCodec = -1; var bestRatio = 0.0
          for (i <- slots.indices if tier(i) == l) {
            val p     = parts(i)
            val cur   = score(p, l, codec(i))
            val freed = math.max(storedGB(p, codec(i)), 1e-12)
            for ((l2, k2, c2) <- opts(i))
              if (l2 != l && used(l2) + storedGB(p, k2) <= caps(l2) + 1e-9) {
                val ratio = (c2 - cur) / freed
                if (best < 0 || byCost.lt(ratio, bestRatio)) {
                  best = i; bestTier = l2; bestCodec = k2; bestRatio = ratio
                }
              }
          }
          if (best < 0) return None // cannot repair: instance infeasible for this heuristic
          tier(best) = bestTier
          codec(best) = bestCodec
      }
    }
    None
  }

  /** Total eq. (1) objective of a complete assignment. */
  def totalCost(inst: OptAssignInstance, assignment: Seq[Assignment]): Double = {
    val byId = inst.parts.map(p => p.id -> p).toMap
    assignment.iterator.map(a => costOf(inst, byId(a.id), a.tier, a.codec)).sum
  }

  /** True iff `assignment` satisfies coverage, capacity, latency and
    * fixed-codec constraints.
    */
  def feasible(inst: OptAssignInstance, assignment: Seq[Assignment]): Boolean = {
    val byId = inst.parts.map(p => p.id -> p).toMap
    val covered = assignment.map(_.id).toSet == inst.parts.map(_.id).toSet &&
      assignment.size == inst.parts.size
    val latency = assignment.forall(a => latencyOk(inst, byId(a.id), a.tier, a.codec))
    val codecs  = assignment.forall(a => codecOk(byId(a.id), a.codec))
    val cap = inst.tiers.indices.forall { l =>
      assignment.iterator.filter(_.tier == l).map(a => storedGB(byId(a.id), a.codec)).sum <=
        inst.capacityGB(l) + 1e-9
    }
    covered && latency && codecs && cap
  }
}
