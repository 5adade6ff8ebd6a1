package repro.tiering

import scala.util.Random

/** Synthetic enterprise data-lake metadata + access logs — the substitute
  * for the paper's proprietary "Enterprise Data I" (see DESIGN.md).
  *
  * Reproduces the published access-pattern structure:
  *  - Fig 1(a): dataset popularity is heavily skewed (few datasets carry
  *    most accesses, most see ~0);
  *  - Fig 1(b): access frequency falls with dataset age (recency);
  *  - Fig 2: per-dataset temporal classes — decaying, constant, periodic
  *    (seasonal), one-shot ingestion spike, and cold.
  *
  * Sizes are lognormal with a heavy tail, scaled to an account-level byte
  * total (TB–PB), matching "hundreds of datasets ranging from TB to PB".
  */
object EnterpriseSim {

  /** Temporal access classes of Fig 2. */
  sealed trait Pattern
  case object Decay    extends Pattern // reads fall off with age
  case object Constant extends Pattern // steady reads
  case object Periodic extends Pattern // seasonal peaks (e.g. year-on-year jobs)
  case object Spike    extends Pattern // one-time activation burst, then quiet
  case object Cold     extends Pattern // ~never read

  /** One dataset: static metadata plus its full monthly read/write series
    * over the simulated timeline (months 0 until `nMonths`).
    *
    * @param reads  reads(m) = number of read accesses in month m
    * @param writes writes(m) = number of write accesses in month m
    */
  final case class Dataset(id: Int, sizeGB: Double, createdMonth: Int, pattern: Pattern,
                           reads: IndexedSeq[Double], writes: IndexedSeq[Double])

  /** An account: a named collection of datasets over a common timeline. */
  final case class Account(name: String, datasets: Vector[Dataset], nMonths: Int) {
    def totalPB: Double = datasets.map(_.sizeGB).sum / 1e6
  }

  /** Class mix outside the popular head: most data is cold or fading — the
    * skew that makes tiering pay (Fig 1).
    */
  val tailMix: Seq[(Pattern, Double)] =
    Seq(Cold -> 0.40, Decay -> 0.25, Spike -> 0.15, Periodic -> 0.10, Constant -> 0.10)

  /** Mix for the popular head of the account: live datasets — popularity and
    * liveness correlate, which is what gives the account a substantial
    * Hot-optimal class (paper Table III: ~40% Hot).
    */
  val headMix: Seq[(Pattern, Double)] =
    Seq(Cold -> 0.05, Decay -> 0.25, Spike -> 0.05, Periodic -> 0.30, Constant -> 0.35)

  private def samplePattern(rng: Random, mix: Seq[(Pattern, Double)]): Pattern = {
    var u = rng.nextDouble() * mix.map(_._2).sum
    mix.find { case (_, w) => { u -= w; u <= 0 } }.map(_._1).getOrElse(mix.last._1)
  }

  /** Expected reads of a dataset of class `p` in month m (created at c),
    * with base intensity r0.
    */
  def expectedReads(p: Pattern, r0: Double, c: Int, m: Int): Double = {
    if (m < c) return 0.0
    val age = m - c
    p match {
      case Cold     => 0.0
      case Decay    => r0 * math.exp(-0.55 * age)
      case Constant => r0 * 0.3
      case Spike    => if (age == 0) r0 * 3.0 else 0.0
      case Periodic => if (age % 6 == 0) r0 else r0 * 0.002
    }
  }

  /** Generates one account.
    *
    * @param nDatasets       number of datasets
    * @param totalPB         total account volume in petabytes (sizes rescaled to hit it)
    * @param nMonths         timeline length (history + projection horizon)
    * @param maxCreatedMonth cap on creation months (exclusive); None allows
    *                        ingestion throughout the timeline (Table II
    *                        accounts), Some(m) makes every dataset an
    *                        established one (Table III/IV predictor account,
    *                        where all 760 datasets have history)
    */
  def account(name: String, nDatasets: Int, totalPB: Double, nMonths: Int,
              seed: Long, maxCreatedMonth: Option[Int] = None): Account = {
    val rng = new Random(seed)
    val rawSizes = Vector.fill(nDatasets)(math.exp(rng.nextGaussian() * 1.0 + 2.0))
    val createdBound = maxCreatedMonth.getOrElse(math.max(1, nMonths - 4))
    val ds0 = (0 until nDatasets).map { i =>
      val kRank   = i % 97 + 1
      val pattern = samplePattern(rng, if (kRank <= 30) headMix else tailMix)
      val created = rng.nextInt(createdBound) // exists before the horizon end
      // Bimodal Zipf-ish popularity over dataset rank (Fig 1a): a popular
      // head whose active datasets clearly clear the Hot-vs-Cool breakeven
      // (~27 reads/month at Azure prices) and a long cold-ish tail, so the
      // account has a substantial Hot class as in the paper's Table III
      // (~40% of 760 datasets Hot-optimal) while accesses stay concentrated
      // in few datasets.
      val r0 = if (kRank <= 30) 3000.0 / math.sqrt(kRank) else 15.0 / math.sqrt(kRank - 29)
      val reads = (0 until nMonths).map { m =>
        val mean = expectedReads(pattern, r0, created, m)
        if (mean <= 0) 0.0
        else math.max(0.0, mean * (0.75 + 0.5 * rng.nextDouble())).round.toDouble
      }
      val writes = (0 until nMonths).map(m => if (m == created) 1.0 + rng.nextInt(3) else 0.0)
      // Bulk lives in cold data (archived logs, one-shot activations dwarf
      // live working sets) — this is what makes PB-scale tiering pay off.
      val sizeMult = pattern match {
        case Cold | Spike => 8.0
        case Decay        => 3.0
        case _            => 1.0
      }
      Dataset(i, rawSizes(i) * sizeMult, created, pattern, reads, writes)
    }.toVector
    val scale = totalPB * 1e6 / ds0.map(_.sizeGB).sum // to GB
    Account(name, ds0.map(d => d.copy(sizeGB = d.sizeGB * scale)), nMonths)
  }

  /** The seed of Table II's first account; each next account takes the next seed. */
  val TableIISeed = 42L

  /** The four customer accounts of Table II (sizes in PB from the paper). */
  def tableIIAccounts(): Vector[Account] = Vector(
    account("Customer A", 520, 0.56, 18, TableIISeed),
    account("Customer B", 463, 0.45, 18, TableIISeed + 1), // paper: 463 datasets for customer B
    account("Customer C", 310, 0.053, 18, TableIISeed + 2),
    account("Customer D", 350, 0.085, 18, TableIISeed + 3),
  )

  /** The ~760-dataset / ~0.7 PB storage account of Tables III–IV: all
    * datasets established (>= 6 months of history at every evaluation
    * window), as in the paper's predictor experiments.
    */
  def tableIIIAccount(seed: Long = 77): Account =
    account("TableIII", 760, 0.7, 20, seed, maxCreatedMonth = Some(8))
}
