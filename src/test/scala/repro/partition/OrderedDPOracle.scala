package repro.partition

import repro.partition.OrderedDP.Solution

/** Brute-force oracle for [[OrderedDP]]: enumerates all 2^(N-1) contiguous
  * compositions of time-ordered partitions.
  */
object OrderedDPOracle {

  /** The min-space cover with true cost <= costThresh; N <= 16 only. */
  def bruteForce(parts: IndexedSeq[Part], cat: FileCatalog, costThresh: Double): Option[Solution] = {
    val n = parts.length
    require(n <= 16, "brute force is exponential; keep N small")
    var best: Option[Solution] = None
    for (mask <- 0 until (1 << math.max(0, n - 1))) {
      // bit b set = cut between parts b and b+1
      var merges = Vector.empty[Part]
      var start  = 0
      var nextId = 10_000
      for (b <- 0 until n) {
        val isCut = b == n - 1 || ((mask >> b) & 1) == 1
        if (isCut) {
          var m = parts(start)
          for (j <- (start + 1) to b) { m = m.merge(parts(j), nextId); nextId += 1 }
          merges = merges :+ m
          start = b + 1
        }
      }
      val cost = Part.totalCost(merges, cat)
      if (cost <= costThresh + 1e-9) {
        val space = Part.totalSpaceRows(merges, cat)
        if (best.forall(_.spaceRows > space)) best = Some(Solution(merges, space, cost))
      }
    }
    best
  }
}
