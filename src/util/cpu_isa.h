// The SIMD instruction set the runtime-dispatched integer kernels
// (codec/sad_kernels.h, video/sse_kernels.h) run on in this process.
//
// DIVE_ISA_X86 / DIVE_ISA_NEON say which kernel family this compiler can
// build for the target; detected_isa() picks the best member the CPU
// supports (AVX2 > SSE2 on x86, NEON on AArch64, else scalar), once per
// process. Every kernel returns the exact integer its scalar reference
// returns, so the choice never changes a result; tests compare scalar
// and SIMD inside one process through SadKernelPolicy::kScalar and
// sse_u8_scalar.
#pragma once

#include <cstdint>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DIVE_ISA_X86 1
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define DIVE_ISA_NEON 1
#endif

namespace dive::util {

enum class Isa : std::uint8_t { kScalar, kSse2, kAvx2, kNeon };

/// "scalar", "sse2", "avx2" or "neon" (the `<isa>` of the sad16.<isa> /
/// sse_plane.<isa> bench metrics).
const char* to_string(Isa isa);

/// Kernel ISA for this process, detected on first call.
Isa detected_isa();

}  // namespace dive::util
