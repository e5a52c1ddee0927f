#include "codec/bitstream.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dive::codec {
namespace {

TEST(Bitstream, BitRoundTrip) {
  BitWriter bw;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (bool b : pattern) bw.put_bit(b);
  const auto data = bw.finish();
  BitReader br(data);
  for (bool b : pattern) EXPECT_EQ(br.get_bit(), b);
}

TEST(Bitstream, FixedWidthRoundTrip) {
  BitWriter bw;
  bw.put_bits(0xABC, 12);
  bw.put_bits(0x3, 2);
  const auto data = bw.finish();
  BitReader br(data);
  EXPECT_EQ(br.get_bits(12), 0xABCu);
  EXPECT_EQ(br.get_bits(2), 0x3u);
}

TEST(Bitstream, UeGolombKnownCodes) {
  // value 0 -> "1" (1 bit), 1 -> "010", 2 -> "011", 3 -> "00100".
  EXPECT_EQ(BitWriter::ue_bits(0), 1);
  EXPECT_EQ(BitWriter::ue_bits(1), 3);
  EXPECT_EQ(BitWriter::ue_bits(2), 3);
  EXPECT_EQ(BitWriter::ue_bits(3), 5);
  EXPECT_EQ(BitWriter::ue_bits(6), 5);
  EXPECT_EQ(BitWriter::ue_bits(7), 7);
}

TEST(Bitstream, UeRoundTripSweep) {
  BitWriter bw;
  for (std::uint32_t v = 0; v < 300; ++v) bw.put_ue(v);
  const auto data = bw.finish();
  BitReader br(data);
  for (std::uint32_t v = 0; v < 300; ++v) EXPECT_EQ(br.get_ue(), v);
}

TEST(Bitstream, SeRoundTripSweep) {
  BitWriter bw;
  for (std::int32_t v = -200; v <= 200; ++v) bw.put_se(v);
  const auto data = bw.finish();
  BitReader br(data);
  for (std::int32_t v = -200; v <= 200; ++v) EXPECT_EQ(br.get_se(), v);
}

TEST(Bitstream, SeBitsMatchesActualWidth) {
  for (std::int32_t v : {-100, -5, -1, 0, 1, 7, 99}) {
    // Eight copies of a code fill exactly se_bits(v) bytes, no padding.
    BitWriter bw;
    for (int i = 0; i < 8; ++i) bw.put_se(v);
    EXPECT_EQ(static_cast<int>(bw.finish().size()), BitWriter::se_bits(v))
        << v;
  }
}

TEST(Bitstream, MixedPayloadRandomized) {
  util::Rng rng(77);
  std::vector<std::int32_t> values;
  BitWriter bw;
  for (int i = 0; i < 1000; ++i) {
    const std::int32_t v = rng.uniform_int(-1000, 1000);
    values.push_back(v);
    bw.put_se(v);
  }
  const auto data = bw.finish();
  BitReader br(data);
  for (std::int32_t v : values) EXPECT_EQ(br.get_se(), v);
}

TEST(Bitstream, ReadPastEndThrows) {
  BitWriter bw;
  bw.put_bits(0x5, 3);
  const auto data = bw.finish();
  BitReader br(data);
  br.get_bits(8);  // consumes the padded byte
  EXPECT_THROW(br.get_bit(), BitstreamError);
}

TEST(Bitstream, MalformedUeThrows) {
  // 5 zero bytes: > 32 leading zeros with no terminator.
  const std::vector<std::uint8_t> zeros(5, 0);
  BitReader br(zeros);
  EXPECT_THROW(br.get_ue(), BitstreamError);
}

TEST(Bitstream, FinishPadsFinalByteWithZeros) {
  BitWriter bw;
  bw.put_bit(true);
  bw.put_bits(0x3, 5);
  const auto data = bw.finish();
  ASSERT_EQ(data.size(), 1u);  // 6 bits padded to one byte
  EXPECT_EQ(data[0], 0x8C);    // 1 00011 00
}

}  // namespace
}  // namespace dive::codec
