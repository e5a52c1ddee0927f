#include "util/cpu_isa.h"

namespace dive::util {

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "?";
}

namespace {

Isa detect() {
#if defined(DIVE_ISA_X86)
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  if (__builtin_cpu_supports("sse2")) return Isa::kSse2;
#elif defined(DIVE_ISA_NEON)
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

}  // namespace

Isa detected_isa() {
  static const Isa isa = detect();
  return isa;
}

}  // namespace dive::util
