#include "codec/bitstream.h"

#include <bit>

namespace dive::codec {

void BitWriter::put_bit(bool bit) {
  cur_ = static_cast<std::uint8_t>((cur_ << 1) | (bit ? 1 : 0));
  if (++cur_bits_ == 8) {
    bytes_.push_back(cur_);
    cur_ = 0;
    cur_bits_ = 0;
  }
}

void BitWriter::put_bits(std::uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) put_bit((value >> i) & 1U);
}

void BitWriter::put_ue(std::uint32_t value) {
  // code = value + 1 in "leading zeros + binary" form.
  const std::uint64_t code = static_cast<std::uint64_t>(value) + 1;
  const int bits = 64 - std::countl_zero(code);
  for (int i = 0; i < bits - 1; ++i) put_bit(false);
  for (int i = bits - 1; i >= 0; --i) put_bit((code >> i) & 1U);
}

void BitWriter::put_se(std::int32_t value) {
  const std::uint32_t mapped =
      value > 0 ? static_cast<std::uint32_t>(value) * 2 - 1
                : static_cast<std::uint32_t>(-static_cast<std::int64_t>(value)) * 2;
  put_ue(mapped);
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (cur_bits_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(cur_ << (8 - cur_bits_)));
    cur_ = 0;
    cur_bits_ = 0;
  }
  return std::move(bytes_);
}

int BitWriter::ue_bits(std::uint32_t value) {
  const std::uint64_t code = static_cast<std::uint64_t>(value) + 1;
  const int bits = 64 - std::countl_zero(code);
  return 2 * bits - 1;
}

int BitWriter::se_bits(std::int32_t value) {
  const std::uint32_t mapped =
      value > 0 ? static_cast<std::uint32_t>(value) * 2 - 1
                : static_cast<std::uint32_t>(-static_cast<std::int64_t>(value)) * 2;
  return ue_bits(mapped);
}

bool BitReader::get_bit() {
  if (pos_byte_ >= data_.size())
    throw BitstreamError("BitReader: read past end of stream");
  const bool bit = (data_[pos_byte_] >> (7 - pos_bit_)) & 1U;
  if (++pos_bit_ == 8) {
    pos_bit_ = 0;
    ++pos_byte_;
  }
  return bit;
}

std::uint32_t BitReader::get_bits(int count) {
  std::uint32_t v = 0;
  for (int i = 0; i < count; ++i) v = (v << 1) | (get_bit() ? 1U : 0U);
  return v;
}

std::uint32_t BitReader::get_ue() {
  int zeros = 0;
  while (!get_bit()) {
    if (++zeros > 32) throw BitstreamError("BitReader: malformed ue code");
  }
  std::uint64_t code = 1;
  for (int i = 0; i < zeros; ++i) code = (code << 1) | (get_bit() ? 1U : 0U);
  // A 32-zero prefix admits 33-bit codes; anything whose value does not
  // fit uint32 is hostile input, not a real code — reject instead of
  // silently truncating.
  if (code - 1 > 0xFFFFFFFFULL)
    throw BitstreamError("BitReader: ue code exceeds 32 bits");
  return static_cast<std::uint32_t>(code - 1);
}

std::int32_t BitReader::get_se() {
  const std::uint32_t mapped = get_ue();
  // mapped == UINT32_MAX would wrap (mapped + 1) to 0 below; the signed
  // domain tops out one code earlier, so reject it as malformed.
  if (mapped == 0xFFFFFFFFU)
    throw BitstreamError("BitReader: se code out of range");
  if (mapped % 2 == 1) return static_cast<std::int32_t>((mapped + 1) / 2);
  return -static_cast<std::int32_t>(mapped / 2);
}

}  // namespace dive::codec
