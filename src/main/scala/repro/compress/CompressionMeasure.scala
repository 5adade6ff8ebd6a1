package repro.compress

import org.apache.spark.sql.Row
import repro.core.CodecPerf

/** Measured compression performance of one (sample, layout, codec):
  * ground truth for COMPREDICT training and for the "ground truth
  * compression" pipeline runs (footnote 9 of the paper).
  *
  * @param rawBytes        serialized size before compression
  * @param compressedBytes size after compression
  * @param decompSecPerGB  wall-clock decompression seconds normalized per GB
  *                        of raw data
  */
final case class CompMeasurement(rawBytes: Long, compressedBytes: Long, decompSecPerGB: Double) {
  def ratio: Double = rawBytes.toDouble / math.max(1L, compressedBytes)
}

object CompressionMeasure {

  /** Measures one in-memory sample serialized in `layout`, as
    * [[measureBytes]] measures its bytes.
    */
  def measureRows(rows: Seq[Row], layout: Layout, codec: Codec): CompMeasurement =
    measureBytes(layout.serialize(rows), codec)

  /** The performance of each of `codecs` on one serialized sample, in
    * order: every codec is measured on these same bytes.
    *
    * @throws IllegalArgumentException if `raw` is empty, which has no ratio
    */
  def codecPerfs(raw: Array[Byte], codecs: Seq[Codec]): Vector[CodecPerf] = {
    require(raw.nonEmpty, "cannot measure codecs on an empty sample")
    codecs.iterator.map { c =>
      val m = measureBytes(raw, c)
      CodecPerf(m.ratio, m.decompSecPerGB)
    }.toVector
  }

  /** Measures a pre-serialized buffer. Decompression is repeated `reps`
    * times and the minimum is taken, which suppresses JIT/GC noise in the
    * sec-per-GB normalization.
    *
    * @throws IllegalArgumentException if `reps` is below 1, which times nothing
    */
  def measureBytes(raw: Array[Byte], codec: Codec, reps: Int = 3): CompMeasurement = {
    require(reps >= 1, s"decompression reps must be at least 1, got $reps")
    val compressed = codec.compress(raw)
    // Warm once so the first timed rep is not a cold path.
    var sink = codec.decompress(compressed, raw.length).length
    var best = Long.MaxValue
    var i = 0
    while (i < reps) {
      val t0 = System.nanoTime()
      sink ^= codec.decompress(compressed, raw.length).length
      val dt = System.nanoTime() - t0
      if (dt < best) best = dt
      i += 1
    }
    require(sink >= 0 || sink < 0) // keep `sink` live so the JIT cannot elide the work
    val secPerGB = best / 1e9 / (raw.length.toDouble / (1L << 30))
    CompMeasurement(raw.length.toLong, compressed.length.toLong, secPerGB)
  }
}
