package repro.partition

import scala.collection.mutable

/** G-PART as first written: every pair scored up front, and every live
  * partition re-scored after each merge, with a SortedSet union per pair.
  * Kept as the differential-test oracle for [[GPart.merge]], which must
  * return exactly the same partitions. Of two equal-weight edges, the one
  * whose (smaller id, larger id) pair is lower merges first.
  */
object GPartReference {

  /** An edge between the partitions with ids `a` and `b`. */
  private final case class Edge(w: Double, a: Int, b: Int) {
    def pair: (Int, Int) = (math.min(a, b), math.max(a, b))
  }

  /** Max-heap order: heavier first, then the lower id pair. */
  private val heaviestThenLowestPair: Ordering[Edge] = (x, y) => {
    val c = java.lang.Double.compare(x.w, y.w)
    if (c != 0) c else Ordering[(Int, Int)].compare(y.pair, x.pair)
  }

  /** Fractional overlap of two partitions; 0 when disjoint. */
  def fractionalOverlap(a: Part, b: Part, cat: FileCatalog): Double = {
    val unionSpan = cat.spanRows(a.files union b.files).toDouble
    if (unionSpan == 0) 0.0 else a.overlapRows(b, cat) / unionSpan
  }

  private def mergeable(a: Part, b: Part, cat: FileCatalog, cfg: GPartConfig): Boolean =
    a.spanRows(cat) < cfg.sThreshRows && b.spanRows(cat) < cfg.sThreshRows &&
      Part.accessCompatible(a, b, cfg.rhoC, cfg.rhoCAbs) &&
      fractionalOverlap(a, b, cat) > 0

  /** Runs G-PART and returns the final set of partitions (merges plus any
    * unmergeable singletons). Every initial partition is covered by exactly
    * one returned partition.
    */
  def merge(initial: Seq[Part], cat: FileCatalog, cfg: GPartConfig = GPartConfig()): Vector[Part] = {
    val live   = mutable.Map.from(initial.map(p => p.id -> p))
    var nextId = initial.iterator.map(_.id).foldLeft(0)(math.max) + 1
    val heap   = mutable.PriorityQueue.empty[Edge](heaviestThenLowestPair)

    val parts = initial.toIndexedSeq
    for (i <- parts.indices; j <- (i + 1) until parts.length)
      if (mergeable(parts(i), parts(j), cat, cfg))
        heap.enqueue(Edge(fractionalOverlap(parts(i), parts(j), cat), parts(i).id, parts(j).id))

    while (heap.nonEmpty) {
      val Edge(_, a, b) = heap.dequeue()
      // Lazily skip edges whose endpoints were already merged away.
      if (live.contains(a) && live.contains(b)) {
        val m = live(a).merge(live(b), nextId)
        nextId += 1
        live.remove(a); live.remove(b)
        live(m.id) = m
        if (m.spanRows(cat) < cfg.sThreshRows) {
          for ((kid, k) <- live if kid != m.id)
            if (mergeable(m, k, cat, cfg))
              heap.enqueue(Edge(fractionalOverlap(m, k, cat), m.id, kid))
        }
      }
    }
    live.values.toVector.sortBy(_.id)
  }
}
