package repro.core

/** Predicted compression performance of one codec on one partition.
  *
  * @param ratio         R^k_n — compression ratio (rawBytes / compressedBytes), >= 1 typically
  * @param decompSecPerGB D̂ — decompression time per GB of *raw* data; the
  *                       absolute decompression time D^k_n for a partition is
  *                       decompSecPerGB * rawSizeGB
  */
final case class CodecPerf(ratio: Double, decompSecPerGB: Double) {
  require(ratio > 0 && !ratio.isInfinite, s"compression ratio must be a finite positive number, got $ratio")
  require(decompSecPerGB >= 0 && !decompSecPerGB.isInfinite,
    s"decompression seconds per GB must be a finite, non-negative number, got $decompSecPerGB")
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
  * @param codecPerfs   per-codec predicted performance; index 0 is the
  *                     "no compression" option, [[CodecPerf.identity]]
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
  require(sizeGB >= 0 && !sizeGB.isInfinite,
    s"partition $id: sizeGB must be a finite, non-negative number, got $sizeGB")
  require(accesses >= 0 && !accesses.isInfinite,
    s"partition $id: accesses must be a finite, non-negative number, got $accesses")
  require(latencySlaSec >= 0,
    s"partition $id: latencySlaSec must be a non-negative number, got $latencySlaSec")
  require(codecPerfs.nonEmpty, s"partition $id: codecPerfs must hold at least the identity codec")
  require(codecPerfs.head == CodecPerf.identity,
    s"partition $id: codec 0 must be the identity ${CodecPerf.identity}, got ${codecPerfs.head}")
  require(currentCodec < codecPerfs.length,
    s"partition $id: currentCodec $currentCodec is not one of its ${codecPerfs.length} codecs")
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
    weights: CostWeights,
    months: Double,
) {
  require(tiers.nonEmpty, "an instance needs at least one tier")
  require(capacityGB.length == tiers.length, "one capacity per tier")
  require(parts.iterator.map(_.id).distinct.size == parts.size, "partition ids must be distinct")
  require(capacityGB.forall(_ >= 0),
    s"capacities must be non-negative numbers (GB or +Infinity), got ${capacityGB.mkString(", ")}")
  require(months > 0 && !months.isInfinite, s"months must be a finite number above 0, got $months")
}

/** OPTASSIGN (Section IV): choose a tier and compression scheme per partition
  * minimizing eq. (1) subject to capacity and latency constraints.
  *
  * Strongly NP-hard in general (Theorem 1); this object provides
  *  - [[terms]]: the unweighted eq. (1) terms and the latency of one
  *    (partition, tier, codec), the one place they are priced
  *  - [[costOf]]: the eq. (1) objective contribution of one (partition, tier, codec)
  *  - [[greedyUnbounded]]: the optimal greedy for unbounded capacity (Theorem 3)
  *  - [[solve]]: the one way to solve an instance. Instances of at most
  *    `ExactMaxParts` (12) partitions get the exact branch-and-bound of the
  *    eq. (1) ILP; larger ones, and small ones whose search runs out of
  *    nodes, get the greedy + capacity repair.
  *  - [[infeasibility]]: why an instance has no plan
  */
object OptAssign {

  /** A per-option objective: what `solve` minimizes for (instance,
    * partition, tier, codec). [[costOf]] is eq. (1).
    */
  type Score = (OptAssignInstance, PartitionStat, Int, Int) => Double

  /** The terms of eq. (1) for partition `p` on tier `l` with codec `k`,
    * unweighted: the one place they are priced.
    *
    * @param storedGB     Sp/R, post-compression GB
    * @param decompSec    D^k_n, decompression time of the whole partition
    * @param latencySec   D^k_n + B_l, the latency the SLA bounds
    * @param storageCents C^s_l * months * Sp/R
    * @param changeCents  Delta_{L(p),l} * Sp/R
    * @param decompCents  rho * C^c * D^k_n
    * @param readCents    rho * C^r_l * Sp/R
    */
  final case class Terms(storedGB: Double, decompSec: Double, latencySec: Double,
                         storageCents: Double, changeCents: Double,
                         decompCents: Double, readCents: Double)

  def terms(inst: OptAssignInstance, p: PartitionStat, l: Int, k: Int): Terms = {
    val t         = inst.tiers(l)
    val stored    = storedGB(p, k)
    val decompSec = p.codecPerfs(k).decompSecPerGB * p.sizeGB
    Terms(stored, decompSec, decompSec + t.ttfbSec,
      t.storageCentsPerGBMonth * inst.months * stored,
      CostModel.tierChangeCents(inst.tiers, p.currentTier, l, stored),
      p.accesses * CostModel.computeCentsPerSec * decompSec,
      p.accesses * t.readCentsPerGB * stored)
  }

  /** Eq. (1) objective contribution of assigning partition `p` to tier `l`
    * with codec `k`:
    * (alpha*C^s_l*months + gamma*Delta_{L(p),l}) * Sp/R  +
    * beta*rho * (C^c * D + C^r_l * Sp/R).
    */
  def costOf(inst: OptAssignInstance, p: PartitionStat, l: Int, k: Int): Double = {
    val t  = inst.tiers(l)
    val tm = terms(inst, p, l, k)
    val w  = inst.weights
    // Keep this arithmetic order: each weight multiplies inside its product.
    // alpha * storageCents + gamma * changeCents + beta * (decompCents +
    // readCents) rounds differently, and the capacity repair's eviction
    // order, so its plan, follows the last bits of these scores.
    val storage = w.alpha * t.storageCentsPerGBMonth * inst.months * tm.storedGB
    val change  = w.gamma * tm.changeCents
    val access  = w.beta * p.accesses *
      (CostModel.computeCentsPerSec * tm.decompSec + t.readCentsPerGB * tm.storedGB)
    storage + change + access
  }

  /** Latency feasibility of (partition, tier, codec): D^k_n + B_l <= T(P_n). */
  def latencyOk(inst: OptAssignInstance, p: PartitionStat, l: Int, k: Int): Boolean =
    terms(inst, p, l, k).latencySec <= p.latencySlaSec

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

  /** Partitions [[infeasibility]] names before it counts the rest. */
  private val NamedUnmet: Int = 5

  /** Why `inst` has no plan: the partitions whose latency SLA is below the
    * latency of their fastest tier and allowed codec, with both (the first
    * few by position, then a count of the rest); or, if there are none, the
    * capacities.
    */
  def infeasibility(inst: OptAssignInstance): String = {
    val unmet = inst.parts.flatMap { p =>
      val fastest = (for (l <- inst.tiers.indices; k <- p.codecPerfs.indices if codecOk(p, k))
        yield terms(inst, p, l, k).latencySec).min
      if (fastest <= p.latencySlaSec) None
      else Some(s"partition ${p.id} (SLA ${p.latencySlaSec} s, fastest option $fastest s)")
    }
    val more = unmet.length - NamedUnmet
    if (unmet.isEmpty) "no plan fits the tier capacities"
    else s"no tier and codec meets the latency SLA of ${unmet.take(NamedUnmet).mkString(", ")}" +
      (if (more > 0) s" and $more more partitions" else "")
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
    * Partitions are visited in instance order, which breaks ties between
    * equally cheap moves and orders the per-tier usage sums: ids play no part.
    *
    * Cost: O(N·L·K·log(L·K)) once to sort every partition's options into
    * flat arrays of tier, codec, score and stored GB, then O(N + N_l·L·K)
    * per eviction, where N_l is the number of partitions in the overfull
    * tier. An eviction reads every score and stored GB from those arrays.
    */
  private[core] def greedyRepair(inst: OptAssignInstance, score: Score): Option[Vector[Assignment]] = {
    val options = inst.parts.map(p => feasibleOptions(inst, p, score))
    if (options.exists(_.isEmpty)) return None
    val n     = options.length
    // Partition i's options, cheapest first, are entries first(i) until first(i + 1)
    // of the flat arrays; held(i) is the entry it holds, at first its cheapest.
    val first = new Array[Int](n + 1)
    for (i <- 0 until n) first(i + 1) = first(i) + options(i).length
    val optTier   = new Array[Int](first(n))
    val optCodec  = new Array[Int](first(n))
    val optScore  = new Array[Double](first(n))
    val optStored = new Array[Double](first(n))
    for (i <- 0 until n; ((l, k, c), j) <- options(i).zipWithIndex) {
      val o = first(i) + j
      optTier(o) = l; optCodec(o) = k; optScore(o) = c
      optStored(o) = storedGB(inst.parts(i), k)
    }
    val held  = java.util.Arrays.copyOf(first, n)
    val caps  = inst.capacityGB.toArray
    val used  = new Array[Double](caps.length)

    var guard = 0
    val maxIters = inst.parts.size * inst.tiers.size * 4 + 16
    while (guard < maxIters) {
      guard += 1
      java.util.Arrays.fill(used, 0.0)
      var i = 0
      while (i < n) { used(optTier(held(i))) += optStored(held(i)); i += 1 }
      var l = 0
      while (l < caps.length && !(used(l) > caps(l) + 1e-9)) l += 1
      if (l == caps.length)
        return Some((0 until n).map { i =>
          Assignment(inst.parts(i).id, optTier(held(i)), optCodec(held(i)))
        }.toVector.sortBy(_.id))
      // The cheapest move (extra score per GB freed) out of the overfull
      // tier l into a tier with spare capacity; the earliest partition wins ties.
      // Double.compare is a total order with NaN above +Infinity.
      var best = -1; var bestOpt = -1; var bestRatio = 0.0
      i = 0
      while (i < n) {
        val h = held(i)
        if (optTier(h) == l) {
          val cur   = optScore(h)
          val freed = math.max(optStored(h), 1e-12)
          var o = first(i)
          while (o < first(i + 1)) {
            val l2 = optTier(o)
            if (l2 != l && used(l2) + optStored(o) <= caps(l2) + 1e-9) {
              val ratio = (optScore(o) - cur) / freed
              if (best < 0 || java.lang.Double.compare(ratio, bestRatio) < 0) {
                best = i; bestOpt = o; bestRatio = ratio
              }
            }
            o += 1
          }
        }
        i += 1
      }
      if (best < 0) return None // cannot repair: instance infeasible for this heuristic
      held(best) = bestOpt
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
