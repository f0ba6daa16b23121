// Exhaustive check of the vector exact-math functions (ml/kernels.h): for
// every one of the 2^32 float bit patterns, exact_tanhf_n, exact_coshf_n
// and exact_expf_n return their scalar definition's bits, and a NaN for a
// NaN. Labelled `exhaustive`, not `ml`, so the sanitizer jobs, which run
// `-L ml`, never run the sweep; CI runs it in a Release build with
// `ctest -L exhaustive`. The inputs are split across the kernel pool.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "ml/kernels.h"

namespace kern = chatfuzz::ml::kern;

namespace {

using VecFn = void (*)(float*, const float*, std::size_t);
using ScalarFn = float (*)(float);

/// Mismatches of vec against scalar over all 2^32 inputs; prints the first
/// few.
std::uint64_t sweep(const char* name, VecFn vec, ScalarFn scalar) {
  constexpr int kChunkBits = 16;
  constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;
  constexpr int kChunks = 1 << (32 - kChunkBits);
  std::mutex mu;
  std::uint64_t mismatches = 0;
  kern::parallel_ranges(kChunks, std::size_t{1} << 20, [&](int c0, int c1) {
    std::vector<float> in(kChunk), out(kChunk);
    std::uint64_t local = 0;
    for (int c = c0; c < c1; ++c) {
      const std::uint32_t base = static_cast<std::uint32_t>(c) << kChunkBits;
      for (std::size_t i = 0; i < kChunk; ++i) {
        in[i] = std::bit_cast<float>(base + static_cast<std::uint32_t>(i));
      }
      vec(out.data(), in.data(), kChunk);
      for (std::size_t i = 0; i < kChunk; ++i) {
        const float want = scalar(in[i]);
        const bool same =
            std::isnan(want)
                ? std::isnan(out[i])
                : std::bit_cast<std::uint32_t>(out[i]) ==
                      std::bit_cast<std::uint32_t>(want);
        if (same) continue;
        if (++local <= 3) {
          const std::lock_guard<std::mutex> lock(mu);
          std::printf("%s(%a) [0x%08x]: vector %a, scalar %a\n", name, in[i],
                      std::bit_cast<std::uint32_t>(in[i]), out[i], want);
        }
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    mismatches += local;
  });
  return mismatches;
}

}  // namespace

TEST(ExactMathExhaustive, VectorTanhfMatchesScalarOnAllInputs) {
  EXPECT_EQ(sweep("tanhf", kern::exact_tanhf_n, kern::exact_tanhf), 0u);
}

TEST(ExactMathExhaustive, VectorCoshfMatchesScalarOnAllInputs) {
  EXPECT_EQ(sweep("coshf", kern::exact_coshf_n, kern::exact_coshf), 0u);
}

TEST(ExactMathExhaustive, VectorExpfMatchesScalarOnAllInputs) {
  EXPECT_EQ(sweep("expf", kern::exact_expf_n, kern::exact_expf), 0u);
}
