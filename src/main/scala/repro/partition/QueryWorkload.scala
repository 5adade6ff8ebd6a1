package repro.partition

import scala.util.Random

/** Synthetic query workloads over a file catalog (Section VI set-up).
  *
  * A *query family* is the set of all queries touching the same file set;
  * each family yields one initial partition whose rho is the family's total
  * access frequency. Enterprise workloads are skewed, so frequencies can be
  * drawn Zipf-like; file footprints are contiguous ranges (time-series-like
  * access).
  */
object QueryWorkload {

  /** Contiguous-range query families (time-series-style access).
    *
    * Each family reads files [start, start+len); start is uniform, len is
    * 1..maxSpanFiles. Frequencies are Zipf(alpha) over family rank when
    * alpha > 0, else uniform in [1, 20]. Families are returned in end-file
    * order so they can feed [[OrderedDP]] directly.
    *
    * @throws IllegalArgumentException if `nFiles` is below 1, `nFamilies`
    *         is negative or `maxSpanFiles` is outside 1..nFiles
    */
  def rangeFamilies(nFiles: Int, nFamilies: Int, maxSpanFiles: Int,
                    zipfAlpha: Double, seed: Long): Vector[Part] = {
    require(nFiles >= 1, s"nFiles must be at least 1, got $nFiles")
    require(nFamilies >= 0, s"nFamilies must be non-negative, got $nFamilies")
    require(maxSpanFiles >= 1 && maxSpanFiles <= nFiles,
      s"maxSpanFiles must be in 1..$nFiles, got $maxSpanFiles")
    val rng = new Random(seed)
    val raw = (0 until nFamilies).map { i =>
      val len   = 1 + rng.nextInt(maxSpanFiles)
      val start = rng.nextInt(nFiles - len + 1)
      val freq =
        if (zipfAlpha > 0) 100.0 / math.pow(i + 1, zipfAlpha) max 1.0
        else 1.0 + rng.nextInt(20)
      (start, len, freq)
    }
    raw.zipWithIndex
      .map { case ((start, len, freq), i) => Part.initial(i, start until (start + len), freq) }
      .sortBy(p => p.files.max)
      .toVector
  }

  /** A synthetic file catalog: `nFiles` files of ~rowsPerFile rows (+-50%,
    * deterministic in seed) and bytesPerRow bytes per row.
    */
  def syntheticCatalog(nFiles: Int, rowsPerFile: Long, bytesPerRow: Long, seed: Long): FileCatalog = {
    val rng  = new Random(seed)
    val rows = Vector.fill(nFiles)(math.max(1L, (rowsPerFile * (0.5 + rng.nextDouble())).toLong))
    FileCatalog(rows, rows.map(_ * bytesPerRow))
  }
}
