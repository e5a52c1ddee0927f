#include "codec/quant.h"

#include <algorithm>
#include <cmath>

namespace dive::codec {

double qp_step(int qp) {
  qp = std::clamp(qp, kMinQp, kMaxQp);
  return 0.625 * std::pow(2.0, static_cast<double>(qp) / 6.0);
}

void quantize(const Block8x8& coeffs, int qp, QuantBlock& levels) {
  const double step = qp_step(qp);
  // Dead zone of 1/6 step suppresses near-zero noise coefficients, which
  // is what makes low-texture blocks cheap (and their MVs noisy).
  const double deadzone = step / 6.0;
  // Round half away from zero, as std::lround does, without the libm
  // call: truncate, then step by the exact fractional part (q - t is
  // exact for |q| < 2^31). The loop has no calls or branches, so it
  // vectorizes.
  for (int i = 0; i < 64; ++i) {
    const double c = coeffs[static_cast<std::size_t>(i)];
    const double q = c / step;
    auto t = static_cast<std::int32_t>(q);
    const double f = q - static_cast<double>(t);
    t += (f >= 0.5 ? 1 : 0) - (f <= -0.5 ? 1 : 0);
    levels[static_cast<std::size_t>(i)] = std::abs(c) <= deadzone ? 0 : t;
  }
}

void dequantize(const QuantBlock& levels, int qp, Block8x8& coeffs) {
  const double step = qp_step(qp);
  for (int i = 0; i < 64; ++i) {
    coeffs[static_cast<std::size_t>(i)] =
        static_cast<double>(levels[static_cast<std::size_t>(i)]) * step;
  }
}

const std::array<int, 64>& zigzag_order() {
  static const std::array<int, 64> order = [] {
    std::array<int, 64> o{};
    int idx = 0;
    for (int s = 0; s < 15; ++s) {
      if (s % 2 == 0) {
        // Walk up-right.
        for (int y = std::min(s, 7); y >= std::max(0, s - 7); --y)
          o[static_cast<std::size_t>(idx++)] = y * 8 + (s - y);
      } else {
        for (int x = std::min(s, 7); x >= std::max(0, s - 7); --x)
          o[static_cast<std::size_t>(idx++)] = (s - x) * 8 + x;
      }
    }
    return o;
  }();
  return order;
}

bool all_zero(const QuantBlock& levels) {
  return std::all_of(levels.begin(), levels.end(),
                     [](std::int32_t l) { return l == 0; });
}

}  // namespace dive::codec
