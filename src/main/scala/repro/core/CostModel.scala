package repro.core

/** One cloud storage tier, parameterized as in the paper's Tables I and XII
  * (Azure ADLS Gen2 published prices).
  *
  * @param name                   human-readable tier name
  * @param storageCentsPerGBMonth C^s_l — storage cost, cents per GB per month
  * @param readCentsPerGB         C^r_l — read cost, cents per GB read
  * @param writeCentsPerGB        C^w_l — write cost, cents per GB written
  *                               (= Delta_{-1,l} for newly ingested data)
  * @param ttfbSec                B_l — read latency (time to first byte), seconds
  * @param earlyDeletionMonths    minimum residency before data can leave the
  *                               tier without penalty (Azure: 6 months for
  *                               Archive, ~1 month for Cool)
  */
final case class Tier(
    name: String,
    storageCentsPerGBMonth: Double,
    readCentsPerGB: Double,
    writeCentsPerGB: Double,
    ttfbSec: Double,
    earlyDeletionMonths: Int,
)

/** Hyper-parameter weights of the OPTASSIGN objective (eq. (1)):
  * alpha scales storage cost, beta scales per-access read + decompression
  * cost, gamma scales tier-change/write cost.
  */
final case class CostWeights(alpha: Double = 1.0, beta: Double = 1.0, gamma: Double = 1.0) {
  for ((name, w) <- Seq("alpha" -> alpha, "beta" -> beta, "gamma" -> gamma))
    require(w >= 0 && !w.isInfinite, s"cost weight $name must be a finite non-negative number, got $w")
}

/** Azure cost parameters used throughout the paper's evaluation.
  *
  * Read costs are the Table XII per-GB conversions of Table I's
  * "cents per 10k operations of 4 MB" (10k * 4 MB = 39.0625 GB):
  * e.g. Premium 0.182 / 39.0625 = 0.004659 cents/GB.
  *
  * Write costs are not printed in the paper; we use the same per-GB
  * conversion of Azure's published write-operation prices, with the
  * property that matters for the optimizer: writes are of the same order
  * as reads for online tiers and archive writes are cheap while archive
  * reads are very expensive.
  */
object CostModel {
  val Premium: Tier = Tier("Premium", 15.0, 0.004659, 0.004659, 0.0053, 0)
  val Hot: Tier     = Tier("Hot", 2.08, 0.01331, 0.01331, 0.0614, 0)
  val Cool: Tier    = Tier("Cool", 1.52, 0.0333, 0.0256, 0.0614, 1)
  val Archive: Tier = Tier("Archive", 0.099, 16.64, 0.0256, 3600.0, 6)

  /** Premium/Hot/Cool — the tier set used for Tables IX–XI (Archive is
    * excluded there because of its 6-month early-deletion period vs the
    * 5.5-month billing horizon).
    */
  val azure3: Vector[Tier] = Vector(Premium, Hot, Cool)

  /** Hot/Cool — the tier set used for Tables III–IV. */
  val hotCool: Vector[Tier] = Vector(Hot, Cool)

  /** Hot/Cool/Archive — Table IV's last row and Table II's 6-month runs. */
  val hotCoolArchive: Vector[Tier] = Vector(Hot, Cool, Archive)

  /** C^c — compute cost in cents per second (Table XII). */
  val computeCentsPerSec: Double = 0.001

  /** Tier-change cost Delta_{u,v} in cents for moving `gb` gigabytes from
    * tier `u` to tier `v`: a read from `u` plus a write to `v`. `u = -1`
    * denotes newly ingested data (write-only). `u == v` costs nothing.
    */
  def tierChangeCents(tiers: IndexedSeq[Tier], u: Int, v: Int, gb: Double): Double =
    if (u == v) 0.0
    else {
      val readPart = if (u < 0) 0.0 else tiers(u).readCentsPerGB * gb
      readPart + tiers(v).writeCentsPerGB * gb
    }
}
