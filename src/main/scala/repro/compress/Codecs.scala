package repro.compress

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import java.util.zip.{GZIPInputStream, GZIPOutputStream}
import net.jpountz.lz4.LZ4Factory
import org.xerial.snappy.Snappy

/** A real compression codec (not a simulation): compress/decompress byte
  * arrays. gzip comes from java.util.zip; snappy and lz4 from the Spark
  * classpath (xerial snappy-java, jpountz lz4-java) — the same native
  * codecs Spark itself uses for shuffle/parquet.
  */
sealed trait Codec extends Serializable {
  def name: String
  def compress(raw: Array[Byte]): Array[Byte]

  /** Inverse of [[compress]]; `rawLen` is the original length (lz4's fast
    * decompressor requires it; others ignore it).
    */
  def decompress(compressed: Array[Byte], rawLen: Int): Array[Byte]
}

object Codecs {

  case object Gzip extends Codec {
    val name = "gzip"
    def compress(raw: Array[Byte]): Array[Byte] = {
      val bos = new ByteArrayOutputStream(raw.length / 2 + 64)
      val gz  = new GZIPOutputStream(bos, 8192)
      gz.write(raw); gz.close()
      bos.toByteArray
    }
    def decompress(c: Array[Byte], rawLen: Int): Array[Byte] = {
      val in  = new GZIPInputStream(new ByteArrayInputStream(c), 8192)
      val out = new ByteArrayOutputStream(math.max(rawLen, 64))
      val buf = new Array[Byte](8192)
      var n   = in.read(buf)
      while (n >= 0) { out.write(buf, 0, n); n = in.read(buf) }
      in.close()
      out.toByteArray
    }
  }

  case object SnappyCodec extends Codec {
    val name = "snappy"
    def compress(raw: Array[Byte]): Array[Byte] = Snappy.compress(raw)
    def decompress(c: Array[Byte], rawLen: Int): Array[Byte] = Snappy.uncompress(c)
  }

  case object Lz4 extends Codec {
    val name = "lz4"
    @transient private lazy val factory = LZ4Factory.fastestInstance()
    def compress(raw: Array[Byte]): Array[Byte] =
      factory.fastCompressor().compress(raw)
    def decompress(c: Array[Byte], rawLen: Int): Array[Byte] =
      factory.fastDecompressor().decompress(c, rawLen)
  }

  /** The paper's evaluated compressing schemes. OPTASSIGN puts the
    * no-compression option, `CodecPerf.identity`, before them, at index 0.
    */
  val compressing: Vector[Codec] = Vector(Gzip, SnappyCodec, Lz4)
}
