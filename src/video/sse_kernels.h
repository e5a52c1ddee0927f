// Runtime-dispatched sum-of-squared-errors kernels for PSNR/MSE
// accumulation (video/image_ops.h).
//
// Same contract and dispatch scheme as codec/sad_kernels.h: the scalar
// kernel is the canonical reference and every SIMD variant must return
// the exact same integer sum for the same inputs (squared differences of
// u8 are integers, and the u64 accumulator cannot overflow for any
// realistic plane — 2^64 / 255^2 pixels is ~280 petapixels). The
// dispatched kernel is the one for util::detected_isa(), resolved once
// per process on first use.
//
// Kernels operate on contiguous byte spans: planes store their pixels
// densely, so PSNR over a plane is one call — no stride plumbing needed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dive::video {

/// Sum of squared differences between `n` bytes at `a` and `b`.
using SseU8Fn = std::uint64_t (*)(const std::uint8_t* a,
                                  const std::uint8_t* b, std::size_t n);

/// Canonical scalar kernel (the reference all SIMD paths must match).
std::uint64_t sse_u8_scalar(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n);

/// The kernel for util::detected_isa() (see file comment).
SseU8Fn sse_u8_fn();

}  // namespace dive::video
