// Differential verification of the codec's block-level fast paths against
// independent per-sample references. The contract is EXACT equality:
//   - half_pel_block (row-loop interpolation of interior blocks) against
//     a half_pel_sample loop, for every displacement parity at interior,
//     edge, corner and far-outside positions, on luma and odd-width
//     chroma planes;
//   - sad_16x16 on half-pel vectors against a per-sample SAD, under both
//     kernel policies;
//   - quantize (branch-free rounding) against a std::lround reference at
//     every QP, on coefficients at and next to the rounding boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "codec/motion_search.h"
#include "codec/quant.h"
#include "codec/sad_kernels.h"
#include "util/rng.h"
#include "video/frame.h"

namespace dive::codec {
namespace {

constexpr int kMb = kMacroblockSize;

video::Plane random_plane(int w, int h, std::uint64_t seed) {
  video::Plane p(w, h);
  util::Rng rng(seed);
  for (auto& b : p.data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

/// Textbook clamped bilinear half-pel sample, written from the definition
/// (average of the 1, 2 or 4 integer neighbours, rounded half up).
int reference_half_pel(const video::Plane& p, int hx, int hy) {
  const auto at = [&](int x, int y) {
    x = x < 0 ? 0 : (x >= p.width ? p.width - 1 : x);
    y = y < 0 ? 0 : (y >= p.height ? p.height - 1 : y);
    return static_cast<int>(p.data[static_cast<std::size_t>(y) * p.width + x]);
  };
  const int x0 = static_cast<int>(std::floor(hx / 2.0));
  const int y0 = static_cast<int>(std::floor(hy / 2.0));
  const int x1 = hx % 2 != 0 ? x0 + 1 : x0;
  const int y1 = hy % 2 != 0 ? y0 + 1 : y0;
  const int n = (x1 != x0 ? 2 : 1) * (y1 != y0 ? 2 : 1);
  const int sum = x1 == x0 && y1 == y0 ? at(x0, y0)
                  : y1 == y0           ? at(x0, y0) + at(x1, y0)
                  : x1 == x0           ? at(x0, y0) + at(x0, y1)
                      : at(x0, y0) + at(x1, y0) + at(x0, y1) + at(x1, y1);
  return (sum + n / 2) / n;
}

/// Block origins at the left/top edge, interior and right/bottom edge of
/// a w x h plane for n x n blocks; with the displacements below they
/// reach every edge and corner from inside and outside.
std::vector<int> origins(int extent, int n) {
  return {0, (extent - n) / 2, extent - n};
}

/// Half-pel displacements of both parities: small (edge-straddling at the
/// border origins) and far outside the plane in every direction.
std::vector<int> displacements() {
  std::vector<int> d;
  for (int v = -5; v <= 5; ++v) d.push_back(v);
  for (const int v : {-401, -400, -101, 101, 400, 401}) d.push_back(v);
  return d;
}

TEST(HalfPel, SampleMatchesTextbookReference) {
  const auto p = random_plane(23, 17, 3);
  for (int hy = -6; hy <= 2 * 17 + 6; ++hy)
    for (int hx = -6; hx <= 2 * 23 + 6; ++hx)
      ASSERT_EQ(half_pel_sample(p, hx, hy), reference_half_pel(p, hx, hy))
          << "(" << hx << "," << hy << ")";
}

void expect_block_matches_samples(const video::Plane& p, int n) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n) * n);
  for (const int by : origins(p.height, n))
    for (const int bx : origins(p.width, n))
      for (const int hdy : displacements())
        for (const int hdx : displacements()) {
          half_pel_block(p, bx, by, hdx, hdy, n, out.data());
          for (int y = 0; y < n; ++y)
            for (int x = 0; x < n; ++x) {
              const int want =
                  half_pel_sample(p, 2 * (bx + x) - hdx, 2 * (by + y) - hdy);
              ASSERT_EQ(out[static_cast<std::size_t>(y * n + x)], want)
                  << p.width << "x" << p.height << " n=" << n << " block ("
                  << bx << "," << by << ") mv (" << hdx << "," << hdy
                  << ") sample (" << x << "," << y << ")";
            }
        }
}

TEST(HalfPel, BlockMatchesSampleLoopOnLuma) {
  expect_block_matches_samples(random_plane(96, 64, 5), kMb);
}

TEST(HalfPel, BlockMatchesSampleLoopOnOddWidthChroma) {
  // Odd width and height: the right/bottom edge blocks are not aligned
  // to the block size, and the row stride is odd.
  expect_block_matches_samples(random_plane(45, 27, 6), kBlockSize);
  expect_block_matches_samples(random_plane(9, 9, 7), kBlockSize);
}

TEST(HalfPel, SadMatchesPerSampleLoopUnderBothPolicies) {
  const auto cur = random_plane(96, 64, 8);
  const auto ref = random_plane(96, 64, 9);
  for (const SadKernelPolicy policy :
       {SadKernelPolicy::kScalar, SadKernelPolicy::kAuto}) {
    const Sad16Fn fn = resolve_sad_fn(policy);
    for (const int cy : origins(64, kMb))
      for (const int cx : origins(96, kMb))
        for (const int hdy : displacements())
          for (const int hdx : displacements()) {
            if ((hdx & 1) == 0 && (hdy & 1) == 0) continue;  // half-pel only
            std::uint32_t want = 0;
            for (int y = 0; y < kMb; ++y)
              for (int x = 0; x < kMb; ++x)
                want += static_cast<std::uint32_t>(std::abs(
                    cur.at(cx + x, cy + y) -
                    reference_half_pel(ref, 2 * (cx + x) - hdx,
                                       2 * (cy + y) - hdy)));
            ASSERT_EQ(sad_16x16(cur, ref, cx, cy, {hdx, hdy}, fn), want)
                << "policy " << static_cast<int>(policy) << " block (" << cx
                << "," << cy << ") mv (" << hdx << "," << hdy << ")";
          }
  }
}

/// The rounding quantize must reproduce: dead zone, then std::lround of
/// the correctly rounded quotient.
void reference_quantize(const Block8x8& coeffs, int qp, QuantBlock& levels) {
  const double step = qp_step(qp);
  for (int i = 0; i < 64; ++i) {
    const double c = coeffs[static_cast<std::size_t>(i)];
    levels[static_cast<std::size_t>(i)] =
        std::abs(c) <= step / 6.0
            ? 0
            : static_cast<std::int32_t>(std::lround(c / step));
  }
}

TEST(Quantize, MatchesLroundReferenceOnRoundingBoundaries) {
  util::Rng rng(10);
  long blocks = 0;
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    const double step = qp_step(qp);
    // Candidate coefficients: exactly +-(k + 1/2) steps and both of their
    // floating-point neighbours, the dead-zone edge and its neighbours,
    // whole steps, and uniform noise over the codec's coefficient range.
    std::vector<double> values;
    for (int k = 0; k <= 40; ++k) {
      for (const double sign : {1.0, -1.0}) {
        const double half = sign * (k + 0.5) * step;
        values.push_back(half);
        values.push_back(std::nextafter(half, 0.0));
        values.push_back(std::nextafter(half, 2.0 * half));
        values.push_back(sign * k * step);
      }
    }
    for (const double sign : {1.0, -1.0}) {
      const double dz = sign * step / 6.0;
      values.push_back(dz);
      values.push_back(std::nextafter(dz, 0.0));
      values.push_back(std::nextafter(dz, 2.0 * dz));
    }
    for (int i = 0; i < 640; ++i) values.push_back(rng.uniform(-2100, 2100));
    // Pack the candidates into blocks, shuffled across lanes so each
    // position of the (vectorized) loop sees every kind of value.
    for (std::size_t start = 0; start < values.size(); start += 64) {
      Block8x8 coeffs{};
      for (int i = 0; i < 64; ++i)
        coeffs[static_cast<std::size_t>(i)] =
            values[(start + static_cast<std::size_t>(i) * 7) % values.size()];
      QuantBlock got;
      QuantBlock want;
      quantize(coeffs, qp, got);
      reference_quantize(coeffs, qp, want);
      for (int i = 0; i < 64; ++i)
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  want[static_cast<std::size_t>(i)])
            << "qp " << qp << " coefficient " << coeffs[static_cast<std::size_t>(i)];
      ++blocks;
    }
  }
  EXPECT_GT(blocks, 52 * 8);
}

TEST(Quantize, ExactHalfwayQuotientsRoundAwayFromZero) {
  // QP 0..5 steps are not dyadic, so (k + 1/2) * step / step need not be
  // exactly k + 1/2; at QP 6k + 0 with the step a power-of-two multiple
  // of 0.625 = 5/8, a coefficient of (k + 1/2) * step is exact.
  for (const int qp : {0, 6, 12, 18, 24, 30, 36, 42, 48}) {
    const double step = qp_step(qp);
    for (int k = 1; k <= 20; ++k) {
      Block8x8 coeffs{};
      coeffs[0] = (k + 0.5) * step;
      coeffs[1] = -(k + 0.5) * step;
      ASSERT_EQ(coeffs[0] / step, k + 0.5);
      QuantBlock levels;
      quantize(coeffs, qp, levels);
      EXPECT_EQ(levels[0], k + 1) << "qp " << qp;
      EXPECT_EQ(levels[1], -(k + 1)) << "qp " << qp;
    }
  }
}

}  // namespace
}  // namespace dive::codec
