// Bit-level I/O with Exp-Golomb entropy codes — the serialization layer of
// the codec (Sec. II-B step 3: entropy encoding of transformed/quantized
// data).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace dive::codec {

class BitWriter {
 public:
  void put_bit(bool bit);
  void put_bits(std::uint32_t value, int count);  ///< MSB-first, count<=32

  /// Unsigned Exp-Golomb.
  void put_ue(std::uint32_t value);
  /// Signed Exp-Golomb (zigzag mapping 0,1,-1,2,-2,...).
  void put_se(std::int32_t value);

  /// Pads the final partial byte with zeros and returns the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Size in bits of the Exp-Golomb code for `value` — used by motion
  /// search for rate-aware cost.
  static int ue_bits(std::uint32_t value);
  static int se_bits(std::int32_t value);

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint8_t cur_ = 0;
  int cur_bits_ = 0;
};

class BitstreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool get_bit();
  std::uint32_t get_bits(int count);
  std::uint32_t get_ue();
  std::int32_t get_se();

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_byte_ = 0;
  int pos_bit_ = 0;
};

}  // namespace dive::codec
