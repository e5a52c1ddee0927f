// Differential verification of the SIMD sum-of-squared-errors kernels
// against the canonical scalar reference (video/sse_kernels.h). The
// contract is EXACT equality: squared u8 differences are integers, so
// the dispatched kernel must reproduce the scalar sum bit-for-bit on
// every input — random buffers, every tail length around the vector
// width, saturating extremes, and the plane_mse/psnr wrappers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/cpu_isa.h"
#include "util/rng.h"
#include "video/frame.h"
#include "video/image_ops.h"
#include "video/sse_kernels.h"

namespace dive::video {
namespace {

std::vector<std::uint8_t> random_buffer(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> buf(n);
  util::Rng rng(seed);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return buf;
}

/// Independent reference: textbook loop in double precision, no shared
/// code with the production scalar kernel. Exact for any realistic size
/// (the sum stays far below 2^53).
double reference_sse(const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

TEST(SseKernels, DispatchReportsAKernel) {
  EXPECT_STRNE(util::to_string(util::detected_isa()), "?");
  EXPECT_NE(sse_u8_fn(), nullptr);
  EXPECT_EQ(sse_u8_fn(), sse_u8_fn());
  if (util::detected_isa() == util::Isa::kScalar) {
    EXPECT_EQ(sse_u8_fn(), &sse_u8_scalar);
  }
}

TEST(SseKernels, MatchesScalarOnRandomBuffers) {
  const SseU8Fn fast = sse_u8_fn();
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 5000));
    const auto a = random_buffer(n, 100 + static_cast<std::uint64_t>(trial));
    const auto b = random_buffer(n, 900 + static_cast<std::uint64_t>(trial));
    const std::uint64_t want = sse_u8_scalar(a.data(), b.data(), n);
    ASSERT_EQ(fast(a.data(), b.data(), n), want)
        << "kernel=" << util::to_string(util::detected_isa()) << " n=" << n;
    ASSERT_EQ(static_cast<double>(want), reference_sse(a.data(), b.data(), n));
  }
}

TEST(SseKernels, EveryTailLengthAroundVectorWidth) {
  // 0..97 covers every remainder mod 16 and mod 32 several times over —
  // the off-by-one classic is mishandling the scalar tail after the
  // vector loop.
  const SseU8Fn fast = sse_u8_fn();
  const auto a = random_buffer(97, 1);
  const auto b = random_buffer(97, 2);
  for (std::size_t n = 0; n <= 97; ++n)
    ASSERT_EQ(fast(a.data(), b.data(), n), sse_u8_scalar(a.data(), b.data(), n))
        << "n=" << n;
}

TEST(SseKernels, SaturatingExtremes) {
  // All-255 vs all-0 maximizes every squared difference; 1e6 samples of
  // 255^2 also exercises the 32-bit-lane block drain (a lane overflows
  // u32 after ~66k such samples if the kernel never drains).
  const std::size_t n = 1'000'000;
  std::vector<std::uint8_t> hi(n, 255);
  std::vector<std::uint8_t> lo(n, 0);
  const SseU8Fn fast = sse_u8_fn();
  const std::uint64_t want = static_cast<std::uint64_t>(n) * 255u * 255u;
  EXPECT_EQ(fast(hi.data(), lo.data(), n), want);
  EXPECT_EQ(fast(lo.data(), hi.data(), n), want);
  EXPECT_EQ(sse_u8_scalar(hi.data(), lo.data(), n), want);
  EXPECT_EQ(fast(hi.data(), hi.data(), n), 0u);
}

TEST(SseKernels, PlaneMseMatchesNaiveAccumulation) {
  Plane a(67, 41), b(67, 41);
  a.data = random_buffer(a.data.size(), 31);
  b.data = random_buffer(b.data.size(), 32);
  const double naive =
      reference_sse(a.data.data(), b.data.data(), a.data.size()) /
      static_cast<double>(a.data.size());
  EXPECT_EQ(plane_mse(a, b), naive);
  EXPECT_EQ(plane_sse(a, b),
            sse_u8_scalar(a.data.data(), b.data.data(), a.data.size()));
}

TEST(SseKernels, PsnrIdenticalPlanesCapped) {
  Frame f(32, 32);
  EXPECT_EQ(psnr_y(f, f), 100.0);
  EXPECT_EQ(plane_sse(f.y, f.y), 0u);
}

}  // namespace
}  // namespace dive::video
