#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace nucon {
namespace {

TEST(Bytes, UvarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0,    1,    127,  128,   16384,
                                  1u << 20, std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) w.uvarint(v);
  const Bytes data = w.take();

  ByteReader r(data);
  for (std::uint64_t v : values) {
    const auto got = r.uvarint();
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.done());
}

TEST(Bytes, SvarintRoundTrip) {
  ByteWriter w;
  const std::int64_t values[] = {0, 1, -1, 63, -64, 1 << 20, -(1 << 20),
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : values) w.svarint(v);
  const Bytes buf = w.take();
  ByteReader r(buf);
  for (std::int64_t v : values) {
    const auto got = r.svarint();
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, v);
  }
}

TEST(Bytes, SmallValuesAreCompact) {
  ByteWriter w;
  w.uvarint(5);
  EXPECT_EQ(w.size(), 1u);
  w.uvarint(300);
  EXPECT_EQ(w.size(), 3u);
}

TEST(Bytes, U64RoundTrip) {
  ByteWriter w;
  w.u64(0xdeadbeefcafef00dULL);
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dULL);
}

TEST(Bytes, PidRoundTrip) {
  ByteWriter w;
  w.pid(0);
  w.pid(63);
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.pid(), 0);
  EXPECT_EQ(r.pid(), 63);
}

TEST(Bytes, PidRejectsOutOfRange) {
  // The cap is kMaxProcesses (1024 since the wide-ProcessSet change): 64
  // is a valid pid now, kMaxProcesses itself is not. Width-specific
  // bounds (pid < n) are the callers' job — see FdValue::decode(r, n).
  ByteWriter w;
  w.svarint(64);
  const Bytes buf1 = w.take();
  ByteReader r1(buf1);
  EXPECT_EQ(r1.pid(), 64);

  ByteWriter w1;
  w1.svarint(kMaxProcesses);
  const Bytes buf1b = w1.take();
  ByteReader r1b(buf1b);
  EXPECT_FALSE(r1b.pid());

  ByteWriter w2;
  w2.svarint(-1);
  const Bytes buf2 = w2.take();
  ByteReader r2(buf2);
  EXPECT_FALSE(r2.pid());
}

TEST(Bytes, RoundRejectsValuesPastInt) {
  ByteWriter w;
  w.uvarint(0);
  w.uvarint(INT_MAX);
  w.uvarint(std::uint64_t{INT_MAX} + 1);
  w.uvarint((std::uint64_t{1} << 32) + 1);  // would truncate to 1
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.round(), 0);
  EXPECT_EQ(r.round(), INT_MAX);
  EXPECT_FALSE(r.round());
  EXPECT_FALSE(r.round());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ProcessSetRoundTrip) {
  ByteWriter w;
  const ProcessSet s{0, 5, 63};
  w.process_set(s, 64);
  const Bytes buf = w.take();
  EXPECT_EQ(buf.size(), 8u);
  ByteReader r(buf);
  EXPECT_EQ(r.process_set(64), s);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, NestedBytesRoundTrip) {
  ByteWriter inner;
  inner.uvarint(7);
  ByteWriter w;
  w.bytes(inner.take());
  const Bytes buf = w.take();
  ByteReader r(buf);
  const auto blob = r.bytes();
  ASSERT_TRUE(blob);
  ByteReader ri(*blob);
  EXPECT_EQ(ri.uvarint(), 7u);
}

TEST(Bytes, TruncatedReadsFail) {
  ByteWriter w;
  w.u64(1234);
  Bytes data = w.take();
  data.resize(4);
  ByteReader r(data);
  EXPECT_FALSE(r.u64());
}

TEST(Bytes, TruncatedVarintFails) {
  Bytes data = {0x80, 0x80};  // continuation bits with no terminator
  ByteReader r(data);
  EXPECT_FALSE(r.uvarint());
}

TEST(Bytes, OverlongVarintFails) {
  // One value has one encoding: no continuation past 64 bits, no zero last
  // byte after the first (0x82 0x00 would be 2), and a tenth byte, which
  // sits at bit 63, of at most 1.
  Bytes past_max(9, 0xff);
  past_max.push_back(0x7f);
  Bytes tenth_two(9, 0x80);
  tenth_two.push_back(0x02);
  for (const Bytes& data :
       {Bytes(11, 0x80), Bytes{0x82, 0x00}, Bytes{0x80, 0x00},
        Bytes{0xff, 0x80, 0x00}, past_max, tenth_two}) {
    ByteReader r(data);
    EXPECT_FALSE(r.uvarint());
  }
}

TEST(Bytes, TruncatedStringFails) {
  ByteWriter w;
  w.uvarint(100);  // claims 100 bytes follow; none do
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_FALSE(r.str());
}

TEST(Bytes, HugeDeclaredLengthFails) {
  // Regression: a declared length near 2^64 used to wrap the `pos_ + len`
  // bounds check and pass it, turning a malformed message into an
  // out-of-bounds read. The reader must compare against remaining space.
  ByteWriter w;
  w.uvarint(std::numeric_limits<std::uint64_t>::max());
  w.u8('x');
  const Bytes buf = w.take();
  ByteReader rs(buf);
  EXPECT_FALSE(rs.str());
  ByteReader rb(buf);
  EXPECT_FALSE(rb.bytes());
}

TEST(Bytes, DeclaredLengthJustPastEndFails) {
  ByteWriter w;
  w.uvarint(4);  // claims 4 payload bytes; only 3 follow
  w.u8(1);
  w.u8(2);
  w.u8(3);
  const Bytes buf = w.take();
  ByteReader rb(buf);
  EXPECT_FALSE(rb.bytes());
  ByteReader rs(buf);
  EXPECT_FALSE(rs.str());
}

TEST(Bytes, WriterResetReuse) {
  ByteWriter w;
  w.uvarint(300);
  w.str("abc");
  const Bytes first = w.buffer();
  EXPECT_EQ(first.size(), w.size());

  w.reset();
  EXPECT_EQ(w.size(), 0u);
  w.uvarint(300);
  w.str("abc");
  EXPECT_EQ(w.buffer(), first);  // reuse reproduces the encoding exactly
}

TEST(Bytes, WriterRawAppendsVerbatim) {
  ByteWriter inner;
  inner.u8(0xaa);
  inner.u8(0xbb);
  ByteWriter w;
  w.raw(inner.buffer());
  EXPECT_EQ(w.buffer(), (Bytes{0xaa, 0xbb}));  // no length prefix
}

TEST(Bytes, EmptyReaderIsDone) {
  Bytes empty;
  ByteReader r(empty);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.u8());
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.remaining(), 2u);
  (void)r.u8();
  EXPECT_EQ(r.remaining(), 1u);
}

}  // namespace
}  // namespace nucon
