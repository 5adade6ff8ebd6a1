package repro.partition

/** DATAPART for time-ordered partitions (Section VI-B).
  *
  * Partitions are ordered by end time and only contiguous runs may merge.
  * [[solve]] is the paper's DP (Theorem 5) on an ε-bucketed cost axis
  * (Theorem 6): merge costs are rounded up to multiples of eps*costThresh
  * and the budget is extended by N buckets, yielding space <= S_OPT with
  * total true cost <= (1 + N*eps) * costThresh in O(N^2 (N + 1/eps)).
  * eps = 1/N gives the (1, 2) bi-criteria approximation.
  */
object OrderedDP {

  /** Result: the chosen contiguous merges (covering all partitions in
    * order), their total space in rows, and their total true cost.
    */
  final case class Solution(merges: Vector[Part], spaceRows: Long, cost: Double)

  /** Runs the bucketed DP. `parts` must be in end-time order. Returns None
    * if even the all-singletons and all-merged extremes exceed the
    * (extended) budget.
    */
  def solve(parts: IndexedSeq[Part], cat: FileCatalog, costThresh: Double,
            eps: Double): Option[Solution] = {
    require(parts.nonEmpty, "no partitions")
    require(eps > 0, "eps must be positive")
    val n    = parts.length
    val unit = math.max(eps * costThresh, 1e-12)
    // Base budget rounds DOWN (so it is <= costThresh in cost units), then is
    // extended by N buckets = N*eps*costThresh, exactly Theorem 6's relaxation.
    val buckets = math.floor(costThresh / unit + 1e-9).toInt + n

    // runSpan(j)(i-1): span (rows) of the union of parts j..i-1; runRho likewise.
    // Computed incrementally per right endpoint to avoid repeated unions.
    val spanOf = Array.ofDim[Long](n, n)  // spanOf(j)(i) = span of parts j..i inclusive
    val rhoOf  = Array.ofDim[Double](n, n)
    for (i <- 0 until n) {
      val files = scala.collection.mutable.Set.empty[Int]
      var span  = 0L
      var rho   = 0.0
      var j     = i
      while (j >= 0) {
        for (f <- parts(j).files) if (files.add(f)) span += cat.rows(f)
        rho += parts(j).rho
        spanOf(j)(i) = span
        rhoOf(j)(i)  = rho
        j -= 1
      }
    }
    def bucketCost(j: Int, i: Int): Int = // cost of merge [j..i], rounded up to buckets
      math.ceil(spanOf(j)(i).toDouble * rhoOf(j)(i) / unit).toInt

    val INF    = Long.MaxValue / 4
    // dp(i)(c) = min space covering parts 0..i-1 with bucketed budget c
    val dp     = Array.fill(n + 1, buckets + 1)(INF)
    val choice = Array.fill(n + 1, buckets + 1)(-1)
    java.util.Arrays.fill(dp(0), 0L)

    for (i <- 1 to n; c <- 0 to buckets) {
      var j = i - 1 // merge covers parts j..i-1
      while (j >= 0) {
        val bc = bucketCost(j, i - 1)
        if (bc <= c && dp(j)(c - bc) < INF) {
          val cand = dp(j)(c - bc) + spanOf(j)(i - 1)
          if (cand < dp(i)(c)) { dp(i)(c) = cand; choice(i)(c) = j }
        }
        j -= 1
      }
    }

    if (dp(n)(buckets) >= INF) None
    else {
      // reconstruct at the best (minimum-space) full-budget cell
      var merges = Vector.empty[Part]
      var i = n
      var c = buckets
      var nextId = parts.iterator.map(_.id).foldLeft(0)(math.max) + 1
      while (i > 0) {
        val j = choice(i)(c)
        val m = (j until i).map(parts).reduceLeft { (a, b) =>
          val mm = a.merge(b, nextId); mm
        }
        val mFixed = if (i - j == 1) m else { nextId += 1; m.copy(id = nextId - 1) }
        merges = mFixed +: merges
        c -= bucketCost(j, i - 1)
        i = j
      }
      val space = Part.totalSpaceRows(merges, cat)
      val cost  = Part.totalCost(merges, cat)
      Some(Solution(merges, space, cost))
    }
  }
}
