package repro.partition

import scala.util.Random

/** Query-family generators that only the tests use. */
object WorkloadGen {

  /** Random-subset query families (ad-hoc access): each family touches
    * `filesPerFamily` uniformly chosen files. Frequencies follow
    * [[QueryWorkload.rangeFamilies]]: Zipf(alpha) over family rank when
    * alpha > 0, else uniform in [1, 20].
    */
  def subsetFamilies(nFiles: Int, nFamilies: Int, filesPerFamily: Int,
                     zipfAlpha: Double, seed: Long): Vector[Part] = {
    val rng = new Random(seed)
    (0 until nFamilies).map { i =>
      val files = rng.shuffle((0 until nFiles).toVector).take(filesPerFamily)
      val freq =
        if (zipfAlpha > 0) 100.0 / math.pow(i + 1, zipfAlpha) max 1.0
        else 1.0 + rng.nextInt(20)
      Part.initial(i, files, freq)
    }.toVector
  }
}
