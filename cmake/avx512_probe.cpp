// Configure-time probe (CMakeLists.txt), built with -march=x86-64-v4: exits
// 0 when the configuring host runs the AVX-512 F, BW, DQ and VL
// instructions that the ML kernels' 16-lane bodies use. A host without them
// exits non-zero or dies on an illegal instruction, and the kernels default
// to x86-64-v3.
#include <immintrin.h>

int main() {
  if (!__builtin_cpu_supports("avx512f") ||
      !__builtin_cpu_supports("avx512bw") ||
      !__builtin_cpu_supports("avx512dq") ||
      !__builtin_cpu_supports("avx512vl")) {
    return 1;
  }
  volatile float seed = 3.f;
  const __m512 x = _mm512_set1_ps(seed);
  // One instruction from each extension, with k-masks.
  const __mmask16 lanes =
      _mm512_cmp_ps_mask(x, _mm512_set1_ps(4.f), _CMP_LT_OQ);         // F
  const __m512 y = _mm512_maskz_mov_ps(0x00ff, _mm512_and_ps(x, x));  // DQ
  const __mmask64 bytes = _mm512_cmpeq_epi8_mask(
      _mm512_castps_si512(y), _mm512_castps_si512(y));                // BW
  const __m256 z =
      _mm256_maskz_mov_ps(0x0f, _mm512_castps512_ps256(y));           // VL
  return lanes == 0xffff && bytes == ~0ull && _mm256_cvtss_f32(z) == 3.f
             ? 0
             : 2;
}
