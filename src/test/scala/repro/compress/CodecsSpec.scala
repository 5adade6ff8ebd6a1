package repro.compress

import org.scalatest.funsuite.AnyFunSuite
import java.nio.charset.StandardCharsets
import scala.util.Random

class CodecsSpec extends AnyFunSuite {

  private val textual = ("the quick brown fox " * 500).getBytes(StandardCharsets.UTF_8)

  test("all codecs round-trip random binary data (50 buffers each)") {
    val rng = new Random(50)
    for (codec <- Codecs.compressing; _ <- 1 to 50) {
      val raw = new Array[Byte](rng.nextInt(5000))
      rng.nextBytes(raw)
      val back = codec.decompress(codec.compress(raw), raw.length)
      assert(back.sameElements(raw), s"${codec.name} failed round-trip")
    }
  }

  test("all codecs round-trip the empty buffer") {
    for (codec <- Codecs.compressing) {
      val back = codec.decompress(codec.compress(Array.empty[Byte]), 0)
      assert(back.isEmpty, codec.name)
    }
  }

  test("all codecs round-trip highly repetitive text") {
    for (codec <- Codecs.compressing) {
      val back = codec.decompress(codec.compress(textual), textual.length)
      assert(back.sameElements(textual), codec.name)
    }
  }

  test("compressing codecs shrink repetitive text (ratio > 2)") {
    for (codec <- Codecs.compressing) {
      val c = codec.compress(textual)
      assert(c.length.toDouble * 2 < textual.length, s"${codec.name}: ${c.length}")
    }
  }

  test("gzip compresses varied text tighter than snappy and lz4 (entropy coding wins)") {
    // Varied vocabulary (not one repeated phrase, where LZ matching alone
    // suffices): Huffman-coding codecs pull ahead here.
    val rng = new Random(52)
    val vocab = Vector("storage", "tier", "partition", "compress", "access", "cloud",
      "latency", "cost", "query", "workload", "archive", "premium", "read", "write")
    val varied = Seq.fill(4000)(vocab(rng.nextInt(vocab.length))).mkString(" ")
      .getBytes(StandardCharsets.UTF_8)
    val g = Codecs.Gzip.compress(varied).length
    val s = Codecs.SnappyCodec.compress(varied).length
    val l = Codecs.Lz4.compress(varied).length
    assert(g < s && g < l, s"gzip=$g snappy=$s lz4=$l")
  }

  test("random bytes are incompressible (ratio ~<= 1)") {
    val rng = new Random(51)
    val raw = new Array[Byte](64 * 1024)
    rng.nextBytes(raw)
    for (codec <- Codecs.compressing)
      assert(codec.compress(raw).length > raw.length * 95 / 100, codec.name)
  }

  test("codec registry: compressing is gzip, snappy, lz4") {
    assert(Codecs.compressing == Vector(Codecs.Gzip, Codecs.SnappyCodec, Codecs.Lz4))
  }

  test("codec names are distinct") {
    assert(Codecs.compressing.map(_.name).distinct.length == Codecs.compressing.length)
  }
}
