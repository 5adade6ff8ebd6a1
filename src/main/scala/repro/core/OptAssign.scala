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
  require(decompSecPerGB >= 0,
    s"decompression seconds per GB must be a non-negative number, got $decompSecPerGB")
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
  require(latencySlaSec >= 0,
    s"partition $id: latencySlaSec must be a non-negative number, got $latencySlaSec")
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
  require(parts.iterator.map(_.id).distinct.size == parts.size, "partition ids must be distinct")
  require(capacityGB.forall(_ >= 0),
    s"capacities must be non-negative numbers (GB or +Infinity), got ${capacityGB.mkString(", ")}")
}

/** OPTASSIGN (Section IV): choose a tier and compression scheme per partition
  * minimizing eq. (1) subject to capacity and latency constraints.
  *
  * Strongly NP-hard in general (Theorem 1); this object provides
  *  - [[costOf]]: the eq. (1) objective contribution of one (partition, tier, codec)
  *  - [[greedyUnbounded]]: the optimal greedy for unbounded capacity (Theorem 3)
  *  - [[solve]]: the one way to solve an instance. Instances of at most
  *    `ExactMaxParts` (12) partitions get the exact branch-and-bound of the
  *    eq. (1) ILP; larger ones, and small ones whose search runs out of
  *    nodes, get the greedy + capacity repair.
  */
object OptAssign {

  /** A per-option objective: what `solve` minimizes for (instance,
    * partition, tier, codec). [[costOf]] is eq. (1).
    */
  type Score = (OptAssignInstance, PartitionStat, Int, Int) => Double

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

  /** All latency- and codec-feasible (tier, codec) options of a partition
    * with their score, lowest score first.
    */
  def feasibleOptions(inst: OptAssignInstance, p: PartitionStat,
                      score: Score = costOf): IndexedSeq[(Int, Int, Double)] =
    (for {
      l <- inst.tiers.indices
      k <- p.codecPerfs.indices
      if codecOk(p, k) && latencyOk(inst, p, l, k)
    } yield (l, k, score(inst, p, l, k))).sortBy(_._3)

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

  /** Instances with at most this many partitions are solved exactly. */
  private[core] val ExactMaxParts: Int = 12

  /** Nodes the exact search may visit before [[solve]] falls back to the repair. */
  private[core] val ExactNodeBudget: Long = 20_000_000L

  /** Minimizes the sum of `score` over a plan that meets every constraint of
    * `inst`, sorted by id; None if the instance is infeasible. Exact for
    * N <= `ExactMaxParts` unless the search runs out of nodes, in which
    * case (and for larger N) the answer is the greedy + capacity repair's.
    * Every plan passes [[feasible]] before it is returned.
    */
  def solve(inst: OptAssignInstance, score: Score = costOf): Option[Vector[Assignment]] = {
    val found =
      if (inst.parts.size > ExactMaxParts) greedyRepair(inst, score)
      else exactIlp(inst, score, ExactNodeBudget) match {
        case Optimum(plan)   => plan
        case BudgetExhausted => greedyRepair(inst, score)
      }
    found.map(checked(inst, _))
  }

  /** Returns `plan` if it satisfies every OPTASSIGN constraint of `inst`;
    * otherwise throws rather than let an infeasible plan be reported.
    */
  private[core] def checked(inst: OptAssignInstance, plan: Vector[Assignment]): Vector[Assignment] = {
    if (!feasible(inst, plan))
      throw new IllegalStateException(
        "OPTASSIGN produced a plan that breaks a coverage, capacity, latency or codec constraint")
    plan
  }

  /** What the exact search found: the optimum (None if the instance is
    * infeasible), or nothing, because it visited more nodes than its budget.
    */
  private[core] sealed trait ExactResult
  private[core] final case class Optimum(plan: Option[Vector[Assignment]]) extends ExactResult
  private[core] case object BudgetExhausted extends ExactResult

  /** Exact branch-and-bound on the eq. (1) ILP under `score`: partitions are
    * branched in decreasing-size order, options are explored best-first,
    * and nodes are pruned with the bound (score so far + sum over remaining
    * partitions of their best feasible option, capacities ignored).
    */
  private[core] def exactIlp(inst: OptAssignInstance, score: Score, nodeBudget: Long): ExactResult = {
    val order = inst.parts.sortBy(p => -p.sizeGB)
    val opts  = order.map(p => feasibleOptions(inst, p, score))
    if (opts.exists(_.isEmpty)) return Optimum(None)

    val n = order.length
    // minTail(i) = sum of best options for partitions i..n-1 (capacity-relaxed bound)
    val minTail = new Array[Double](n + 1)
    for (i <- (n - 1) to 0 by -1) minTail(i) = minTail(i + 1) + opts(i).head._3

    var best: Option[Array[(Int, Int)]] = None
    var bestScore = Double.PositiveInfinity
    val cur       = new Array[(Int, Int)](n)
    val capLeft   = inst.capacityGB.toArray
    var nodes     = 0L

    def rec(i: Int, acc: Double): Unit = {
      nodes += 1
      if (nodes > nodeBudget || acc + minTail(i) >= bestScore) return
      if (i == n) { bestScore = acc; best = Some(cur.clone()); return }
      val p = order(i)
      for ((l, k, c) <- opts(i)) {
        val s = storedGB(p, k)
        if (s <= capLeft(l) + 1e-9 && acc + c + minTail(i + 1) < bestScore) {
          capLeft(l) -= s
          cur(i) = (l, k)
          rec(i + 1, acc + c)
          capLeft(l) += s
        }
      }
    }

    rec(0, 0.0)
    if (nodes > nodeBudget) BudgetExhausted
    else Optimum(best.map { sol =>
      order.indices.map(i => Assignment(order(i).id, sol(i)._1, sol(i)._2)).toVector.sortBy(_.id)
    })
  }

  /** General-case heuristic: start from the unbounded greedy, then while a
    * tier is over its capacity, evict from it the partition whose move to
    * its next-best feasible tier with spare capacity costs the least extra
    * `score` per GB freed (capacity repair frees stored GB; the score only
    * drives preference order). It IS the greedy wherever capacity is slack.
    *
    * Cost: O(N·L·K·log(L·K)) once to sort every partition's options, then
    * O(N + N_l·L·K) per eviction, where N_l is the number of partitions in
    * the overfull tier.
    */
  private[core] def greedyRepair(inst: OptAssignInstance, score: Score): Option[Vector[Assignment]] = {
    val options = inst.parts.map(p => feasibleOptions(inst, p, score))
    if (options.exists(_.isEmpty)) return None
    // Partitions are visited in the iteration order of a mutable map keyed by
    // their (distinct) ids. Eviction ties go to the first candidate in that
    // order, and per-tier usage is summed in it, so the order is part of the
    // answer; ids need not be contiguous.
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
            val cur   = score(inst, p, l, codec(i))
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
