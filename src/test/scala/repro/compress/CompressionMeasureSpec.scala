package repro.compress

import org.scalatest.funsuite.AnyFunSuite

class CompressionMeasureSpec extends AnyFunSuite {

  test("measureBytes: ratio = raw / compressed, positive decompression rate") {
    val raw = ("repetition! " * 2000).getBytes
    val m = CompressionMeasure.measureBytes(raw, Codecs.Gzip)
    assert(m.rawBytes == raw.length)
    assert(m.compressedBytes < m.rawBytes)
    assert(math.abs(m.ratio - raw.length.toDouble / m.compressedBytes) < 1e-9)
    assert(m.decompSecPerGB > 0)
    val e = intercept[IllegalArgumentException](CompressionMeasure.measureBytes(raw, Codecs.Gzip, reps = 0))
    assert(e.getMessage.contains("got 0"))
  }

  test("snappy decompresses faster than gzip per GB (the latency tradeoff COMPREDICT learns)") {
    val raw = ("enterprise data lake partition content " * 30000).getBytes
    val g = CompressionMeasure.measureBytes(raw, Codecs.Gzip, reps = 5)
    val s = CompressionMeasure.measureBytes(raw, Codecs.SnappyCodec, reps = 5)
    assert(s.decompSecPerGB < g.decompSecPerGB)
  }

  test("codecPerfs measures each codec on the same bytes, in order, and rejects no bytes") {
    val raw = ("repetition! " * 2000).getBytes
    val perfs = CompressionMeasure.codecPerfs(raw, Codecs.compressing)
    assert(perfs.map(_.ratio) == Codecs.compressing.map(CompressionMeasure.measureBytes(raw, _).ratio))
    val e = intercept[IllegalArgumentException](CompressionMeasure.codecPerfs(Array.empty, Codecs.compressing))
    assert(e.getMessage.contains("empty sample"))
  }

  test("measureRows on an empty partition set yields empty serialization") {
    val m = CompressionMeasure.measureRows(Vector.empty, Layouts.RowCsv, Codecs.SnappyCodec)
    assert(m.rawBytes == 0L)
  }
}
