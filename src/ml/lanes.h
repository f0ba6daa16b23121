// Vector lane types for the ML kernel files. kernels.cpp and
// kernels_exact.cpp are the only files that include this header, and they
// are built for the same -march (CMakeLists.txt). The GEMM tile and the
// exact-math vector bodies are templates over one of these types, so each
// is written once and compiled at the width the target has:
//
//   L16      sixteen floats in a zmm register (AVX-512 F/BW/DQ/VL); lane
//            masks are k-registers.
//   L8       eight floats in a ymm register (AVX2+FMA); lane masks are
//            vectors whose lanes are all ones or all zeros.
//   Portable eight floats in an array, for the GEMM tile where the target
//            has neither: one scalar multiply-add per lane.
//
// Wide is the widest of L16 and L8 that the target has. Every operation
// works lane by lane and is one IEEE operation per lane, so a body gives a
// lane the same bits at either width. Float +, -, * and / are the vector
// types' own operators (a GCC and Clang vector extension); a fused
// multiply-add is only ever an explicit fma.
#pragma once

#include <cmath>
#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
// GCC 12's AVX-512 intrinsics start from an _mm512_undefined_*() value,
// which -W(maybe-)uninitialized reports at every use once inlined (GCC PR
// 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace chatfuzz::ml::kern::simd {

/// Eight floats in an array. A mask is the number of live lanes, from
/// lane 0; a masked load leaves the other lanes zero and reads nothing
/// past them, a masked store writes the live lanes only.
struct Portable {
  static constexpr int kW = 8;
  struct F {
    float v[kW];
  };
  using M = int;

  static F set(float x) {
    F r;
    for (float& l : r.v) l = x;
    return r;
  }
  static F zero() { return set(0.f); }
  static F load(const float* p) {
    F r;
    for (int l = 0; l < kW; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(float* p, F x) {
    for (int l = 0; l < kW; ++l) p[l] = x.v[l];
  }
  static F load(const float* p, M n) {
    F r = zero();
    for (int l = 0; l < n; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(float* p, M n, F x) {
    for (int l = 0; l < n; ++l) p[l] = x.v[l];
  }
  /// a * b + c per lane, with one rounding where the target has a fast
  /// fmaf and two where it does not; spelled out either way, so FP
  /// contraction has nothing to choose.
  static F fma(F a, F b, F c) {
    for (int l = 0; l < kW; ++l) {
#if defined(__FP_FAST_FMAF)
      c.v[l] = std::fma(a.v[l], b.v[l], c.v[l]);
#else
      c.v[l] = a.v[l] * b.v[l] + c.v[l];
#endif
    }
    return c;
  }
  /// Lanes [0, n).
  static M first(int n) { return n < 0 ? 0 : (n > kW ? kW : n); }
};

#if defined(__AVX2__) && defined(__FMA__)
struct L8 {
  static constexpr int kW = 8;
  using F = __m256;   // float lanes
  using I = __m256i;  // 32-bit integer lanes
  using M = __m256i;  // lane mask
  using D = __m256d;  // half the lanes, in double
  using Q = __m256i;  // 64-bit integer lanes of a D

  // Floats.
  static F set(float x) { return _mm256_set1_ps(x); }
  static F zero() { return _mm256_setzero_ps(); }
  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, F x) { _mm256_storeu_ps(p, x); }
  /// Lanes outside m read as zero and touch no memory.
  static F load(const float* p, M m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, M m, F x) { _mm256_maskstore_ps(p, m, x); }
  static F fma(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F fand(F a, F b) { return _mm256_and_ps(a, b); }
  static F fandnot(F a, F b) { return _mm256_andnot_ps(a, b); }  // ~a & b
  static F fxor(F a, F b) { return _mm256_xor_ps(a, b); }
  /// a < b, false where either is NaN.
  static M lt(F a, F b) {
    return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_LT_OQ));
  }
  /// m ? a : b, lane by lane.
  static F sel(M m, F a, F b) {
    return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
  }

  // 32-bit integers.
  static I bits(F x) { return _mm256_castps_si256(x); }
  static F fbits(I x) { return _mm256_castsi256_ps(x); }
  static I iset(std::uint32_t u) {
    return _mm256_set1_epi32(static_cast<int>(u));
  }
  static I iand(I a, I b) { return _mm256_and_si256(a, b); }
  static I ior(I a, I b) { return _mm256_or_si256(a, b); }
  static I iadd(I a, I b) { return _mm256_add_epi32(a, b); }
  static I isub(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I shl(I a, int n) { return _mm256_slli_epi32(a, n); }
  static I sar(I a, int n) { return _mm256_srai_epi32(a, n); }
  /// a >> b per lane (logical), zero where b, as unsigned, is 32 or more.
  static I shrv(I a, I b) { return _mm256_srlv_epi32(a, b); }
  /// Truncating conversion; out of range gives 0x80000000.
  static I cvtt(F x) { return _mm256_cvttps_epi32(x); }
  static F cvt(I x) { return _mm256_cvtepi32_ps(x); }
  static M gt(I a, I b) { return _mm256_cmpgt_epi32(a, b); }  // signed
  static M eq(I a, I b) { return _mm256_cmpeq_epi32(a, b); }
  static I sel(M m, I a, I b) { return _mm256_blendv_epi8(b, a, m); }

  // Masks.
  static M mand(M a, M b) { return _mm256_and_si256(a, b); }
  static M mor(M a, M b) { return _mm256_or_si256(a, b); }
  static M mandnot(M a, M b) { return _mm256_andnot_si256(a, b); }  // ~a & b
  /// Bit l set where lane l is.
  static unsigned mbits(M m) {
    return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
  }
  /// Lanes [0, n).
  static M first(int n) {
    return gt(_mm256_set1_epi32(n), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }

  // Doubles, over the lower or upper half of the float lanes.
  static D lo(F x) { return _mm256_cvtps_pd(_mm256_castps256_ps128(x)); }
  static D hi(F x) { return _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)); }
  /// The float lanes of two halves, each rounded from double.
  static F join(D lo, D hi) {
    return _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
  }
  static D dset(double x) { return _mm256_set1_pd(x); }
  static D dfma(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  static Q qbits(D x) { return _mm256_castpd_si256(x); }
  static D dbits(Q x) { return _mm256_castsi256_pd(x); }
  static Q qset(std::uint64_t u) {
    return _mm256_set1_epi64x(static_cast<long long>(u));
  }
  static Q qand(Q a, Q b) { return _mm256_and_si256(a, b); }
  static Q qadd(Q a, Q b) { return _mm256_add_epi64(a, b); }
  static Q qshl(Q a, int n) { return _mm256_slli_epi64(a, n); }
  /// table[i] for each lane's index i.
  static Q gather(const std::uint64_t* table, Q i) {
    return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(table),
                                  i, 8);
  }
};
#endif

#if defined(__AVX2__) && defined(__FMA__) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
struct L16 {
  static constexpr int kW = 16;
  using F = __m512;
  using I = __m512i;
  using M = __mmask16;
  using D = __m512d;
  using Q = __m512i;

  // Floats.
  static F set(float x) { return _mm512_set1_ps(x); }
  static F zero() { return _mm512_setzero_ps(); }
  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, F x) { _mm512_storeu_ps(p, x); }
  static F load(const float* p, M m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, M m, F x) { _mm512_mask_storeu_ps(p, m, x); }
  static F fma(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static F fand(F a, F b) { return _mm512_and_ps(a, b); }
  static F fandnot(F a, F b) { return _mm512_andnot_ps(a, b); }
  static F fxor(F a, F b) { return _mm512_xor_ps(a, b); }
  static M lt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static F sel(M m, F a, F b) { return _mm512_mask_blend_ps(m, b, a); }

  // 32-bit integers.
  static I bits(F x) { return _mm512_castps_si512(x); }
  static F fbits(I x) { return _mm512_castsi512_ps(x); }
  static I iset(std::uint32_t u) {
    return _mm512_set1_epi32(static_cast<int>(u));
  }
  static I iand(I a, I b) { return _mm512_and_si512(a, b); }
  static I ior(I a, I b) { return _mm512_or_si512(a, b); }
  static I iadd(I a, I b) { return _mm512_add_epi32(a, b); }
  static I isub(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I shl(I a, int n) { return _mm512_slli_epi32(a, n); }
  static I sar(I a, int n) { return _mm512_srai_epi32(a, n); }
  static I shrv(I a, I b) { return _mm512_srlv_epi32(a, b); }
  static I cvtt(F x) { return _mm512_cvttps_epi32(x); }
  static F cvt(I x) { return _mm512_cvtepi32_ps(x); }
  static M gt(I a, I b) { return _mm512_cmpgt_epi32_mask(a, b); }
  static M eq(I a, I b) { return _mm512_cmpeq_epi32_mask(a, b); }
  static I sel(M m, I a, I b) { return _mm512_mask_blend_epi32(m, b, a); }

  // Masks.
  static M mand(M a, M b) { return static_cast<M>(a & b); }
  static M mor(M a, M b) { return static_cast<M>(a | b); }
  static M mandnot(M a, M b) { return static_cast<M>(~a & b); }
  static unsigned mbits(M m) { return m; }
  static M first(int n) {
    return static_cast<M>(n <= 0 ? 0u : n >= kW ? 0xffffu : (1u << n) - 1);
  }

  // Doubles.
  static D lo(F x) { return _mm512_cvtps_pd(_mm512_castps512_ps256(x)); }
  static D hi(F x) { return _mm512_cvtps_pd(_mm512_extractf32x8_ps(x, 1)); }
  static F join(D lo, D hi) {
    return _mm512_insertf32x8(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo)),
                              _mm512_cvtpd_ps(hi), 1);
  }
  static D dset(double x) { return _mm512_set1_pd(x); }
  static D dfma(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static Q qbits(D x) { return _mm512_castpd_si512(x); }
  static D dbits(Q x) { return _mm512_castsi512_pd(x); }
  static Q qset(std::uint64_t u) {
    return _mm512_set1_epi64(static_cast<long long>(u));
  }
  static Q qand(Q a, Q b) { return _mm512_and_si512(a, b); }
  static Q qadd(Q a, Q b) { return _mm512_add_epi64(a, b); }
  static Q qshl(Q a, int n) { return _mm512_slli_epi64(a, n); }
  static Q gather(const std::uint64_t* table, Q i) {
    return _mm512_i64gather_epi64(i, table, 8);
  }
};
using Wide = L16;
#elif defined(__AVX2__) && defined(__FMA__)
using Wide = L8;
#endif

}  // namespace chatfuzz::ml::kern::simd
