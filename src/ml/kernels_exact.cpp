// Transformer layer kernels for the training path — causal attention,
// layernorm, softmax and GELU, split across the kernel pool (ml/kernels.h) —
// and the exact math they call: the repository's own tanhf, coshf and expf.
//
// Every kernel here reproduces its *_ref loop in kernels_ref.cpp bit for bit.
// That is why this file is compiled with -ffp-contract=off (CMakeLists.txt):
// contracting a*b+c into an FMA rounds once instead of twice. The loops are
// reshaped only in ways that keep each output element's operations and their
// order — work is split across independent outputs (batch rows, rows,
// channels) and vector lanes run across independent keys or elements, never
// across a sum.
//
// Exact math. exact_expm1f, exact_tanhf and exact_coshf are ports of
// fdlibm's, and exact_expf of the optimized-routines expf (a 32-entry table
// of 2^(i/32) and a cubic in double), with the four fused multiply-adds of
// its x86-64 FMA build. They reproduce glibc 2.36's libm on x86-64 with FMA
// bit for bit, but the bits are defined here, not by whichever libm is
// installed. Their vector versions run the same IEEE operations lane by
// lane, every branch computed and blended, and lanes outside the common
// range take the scalar definition one at a time. Each vector body — the
// expm1f, expf, tanhf and coshf cores, patch(), the exact_*_n maps, the
// GELU epilogue and backward, and exp_shifted — is written once over a lane
// type (ml/lanes.h) and runs at the target's widest lanes: sixteen with
// AVX-512 (k-masks; expf's double core on two halves of eight doubles),
// eight with AVX2, so both widths give the scalar bits. Exponent arithmetic
// is done on unsigned integers, so no shift or add overflows a signed type.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/kernels.h"
#include "ml/lanes.h"

namespace chatfuzz::ml::kern {

// ===========================================================================
// Exact math: scalar definitions.
// ===========================================================================
namespace {

using std::bit_cast;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

// expm1f (fdlibm).
constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

// expf: x = (k + r) ln2 / 32 with an integer k and |r| <= 1/2, and
// exp(x) = 2^(k/32) * (1 + C2 r + C1 r^2 + C0 r^3).
constexpr double kInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln2
constexpr double kShift = 0x1.8p+52;  // rounds kInvLn2N * x to an integer
constexpr double kC0 = 0x1.c6af84b912394p-20;
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;
/// Entry i is asuint64(2^(i/32)) - (i << 47), so adding k << 47 to entry
/// k % 32 gives the bits of 2^(k/32): k / 32 lands in the exponent field.
alignas(64) constexpr u64 kExp2Tab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Adds k to y's exponent field, fdlibm's scaling by 2^k (exact while the
/// result stays a normal number).
float scale_exponent(float y, std::int32_t k) {
  return bit_cast<float>(bit_cast<u32>(y) + (static_cast<u32>(k) << 23));
}

}  // namespace

float exact_expm1f(float x) {
  u32 hx = bit_cast<u32>(x);
  const u32 xsb = hx & 0x80000000u;
  hx &= 0x7fffffffu;
  if (hx >= 0x4195b844u) {    // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.f;
      if (x > 8.8721679688e+01f) return kInf;
    }
    if (xsb != 0) return -1.f;
  }
  float hi, lo, c = 0.f;
  std::int32_t k;
  if (hx > 0x3eb17218u) {    // |x| > ln2 / 2
    if (hx < 0x3f851592u) {  // and |x| < 3 ln2 / 2
      if (xsb == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (xsb == 0 ? 0.5f : -0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // exact
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25
    return x;
  } else {
    k = 0;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.f * (e - (x + 0.5f));
    return 1.f + 2.f * (x - e);
  }
  if (k <= -2 || k > 56) return scale_exponent(1.f - (e - x), k) - 1.f;
  float y;
  if (k < 23) {
    t = bit_cast<float>(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = bit_cast<float>((0x7fu - static_cast<u32>(k)) << 23);  // 2^-k
    y = x - (e + t);
    y += 1.f;
  }
  return scale_exponent(y, k);
}

float exact_tanhf(float x) {
  const u32 jx = bit_cast<u32>(x);
  const u32 ix = jx & 0x7fffffffu;
  const bool neg = (jx >> 31) != 0;
  if (ix >= 0x7f800000u) return neg ? 1.f / x - 1.f : 1.f / x + 1.f;
  float z;
  if (ix < 0x41b00000u) {          // |x| < 22
    if (ix == 0) return x;         // +-0
    if (ix < 0x24000000u) return x * (1.f + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {       // |x| >= 1
      const float t = exact_expm1f(2.f * std::fabs(x));
      z = 1.f - 2.f / (t + 2.f);
    } else {
      const float t = exact_expm1f(-2.f * std::fabs(x));
      z = -t / (t + 2.f);
    }
  } else {
    z = 1.f;  // fdlibm's 1 - 1e-30, which rounds to 1
  }
  return neg ? -z : z;
}

float exact_coshf(float x) {
  const u32 ix = bit_cast<u32>(x) & 0x7fffffffu;
  const float ax = std::fabs(x);
  if (ix < 0x41b00000u) {    // |x| < 22
    if (ix < 0x3eb17218u) {  // |x| < ln2 / 2
      if (ix < 0x24000000u) return 1.f;
      const float t = exact_expm1f(ax);
      const float w = 1.f + t;
      return 1.f + (t * t) / (w + w);
    }
    const float t = exact_expf(ax);
    return 0.5f * t + 0.5f / t;
  }
  if (ix < 0x42b17180u) return 0.5f * exact_expf(ax);
  if (ix <= 0x42b2d4fcu) {  // up to the overflow threshold
    const float w = exact_expf(0.5f * ax);
    const float t = 0.5f * w;
    return t * w;
  }
  if (ix >= 0x7f800000u) return x * x;
  return kInf;
}

float exact_expf(float x) {
  const u32 ix = bit_cast<u32>(x);
  if (((ix >> 20) & 0x7ffu) >= 0x42bu) {  // |x| >= 88 or NaN
    if (ix == 0xff800000u) return 0.f;      // -inf
    if ((ix & 0x7fffffffu) >= 0x7f800000u) return x + x;
    if (x > 0x1.62e42ep6f) return kInf;        // x > ln(2^128)
    if (x < -0x1.9fe368p6f) return 0.f;        // x < ln(2^-150)
    if (x < -0x1.9d1d9ep6f) return 0x1p-149f;  // x < ln(2^-149)
  }
  const double xd = x;
  double kd = std::fma(kInvLn2N, xd, kShift);
  const u64 ki = bit_cast<u64>(kd);
  kd -= kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  const double s = bit_cast<double>(kExp2Tab[ki % 32] + (ki << 47));
  const double z = std::fma(r, kC0, kC1);
  const double r2 = r * r;
  double y = std::fma(r, kC2, 1.0);
  y = std::fma(z, r2, y);
  return static_cast<float>(y * s);
}

// ===========================================================================
// Exact math: vector versions, one body each over a lane type L (ml/lanes.h),
// run at the target's widest lanes (simd::Wide) and, for attention's 8-lane
// groups, at 8. Each computes every branch its scalar definition takes in
// the common range and blends; the other lanes go through patch().
// ===========================================================================
#if defined(__AVX2__) && defined(__FMA__)
namespace {

using simd::L8;
using simd::Wide;

/// Integer lanes against a constant; |x|'s bits compare as signed values.
template <class L>
typename L::M gt(typename L::I a, u32 b) {
  return L::gt(a, L::iset(b));
}
template <class L>
typename L::M lt(typename L::I a, u32 b) {
  return L::gt(L::iset(b), a);
}
template <class L>
typename L::M eq(typename L::I a, u32 b) {
  return L::eq(a, L::iset(b));
}

/// Lanes where `fast` is clear take the scalar definition SF.
template <class L, float (*SF)(float)>
typename L::F patch(typename L::F y, typename L::F x, typename L::M fast) {
  constexpr unsigned kAll = (1u << L::kW) - 1;
  const unsigned slow = ~L::mbits(fast) & kAll;
  if (slow == 0) return y;
  alignas(64) float xs[L::kW], ys[L::kW];
  L::store(xs, x);
  L::store(ys, y);
  for (int i = 0; i < L::kW; ++i) {
    if ((slow >> i) & 1) ys[i] = SF(xs[i]);
  }
  return L::load(ys);
}

/// exact_expm1f for x in (-27 ln2, 88).
template <class L>
typename L::F v_expm1f(typename L::F x) {
  using F = typename L::F;
  using I = typename L::I;
  const I hx = L::iand(L::bits(x), L::iset(0x7fffffffu));
  const I neg = L::sar(L::bits(x), 31);
  // k = 0 up to ln2 / 2, +-1 below 3 ln2 / 2, (int)(x / ln2 +- 1/2) above.
  const F half = L::fbits(L::ior(L::bits(L::set(0.5f)), L::shl(neg, 31)));
  const I kround = L::cvtt(L::set(kInvLn2) * x + half);
  I k = L::sel(lt<L>(hx, 0x3f851592u), L::ior(neg, L::iset(1)), kround);
  k = L::sel(gt<L>(hx, 0x3eb17218u), k, L::iset(0));
  // With k = +-1, t * ln2hi is +-ln2hi; with k = 0, x stays as it is.
  const F t = L::cvt(k);
  const F hi = x - t * L::set(kLn2Hi);
  const F lo = t * L::set(kLn2Lo);
  const F xr = hi - lo;
  const F c = (hi - xr) - lo;

  const F hfx = L::set(0.5f) * xr;
  const F hxs = xr * hfx;
  F p = L::set(kQ4) + hxs * L::set(kQ5);
  p = L::set(kQ3) + hxs * p;
  p = L::set(kQ2) + hxs * p;
  p = L::set(kQ1) + hxs * p;
  const F r1 = L::set(1.f) + hxs * p;
  const F tt = L::set(3.f) - r1 * hfx;
  F e = hxs * ((r1 - tt) / (L::set(6.f) - xr * tt));
  const F y0 = xr - (xr * e - hxs);
  e = (xr * (e - c) - c) - hxs;
  const F ym1 = L::set(0.5f) * (xr - e) - L::set(0.5f);
  const F yp1 = L::sel(L::lt(xr, L::set(-0.25f)),
                       L::set(-2.f) * (e - (xr + L::set(0.5f))),
                       L::set(1.f) + L::set(2.f) * (xr - e));
  const I kexp = L::shl(k, 23);
  const auto scale = [&](F y) { return L::fbits(L::iadd(L::bits(y), kexp)); };
  const F e_x = e - xr;
  const F yfar = scale(L::set(1.f) - e_x) - L::set(1.f);
  const F t_lo = L::fbits(
      L::isub(L::iset(0x3f800000u), L::shrv(L::iset(0x1000000u), k)));
  const F ylo = scale(t_lo - e_x);
  const F t_hi = L::fbits(L::shl(L::isub(L::iset(0x7fu), k), 23));
  const F yhi = scale((xr - (e + t_hi)) + L::set(1.f));

  F y = L::sel(gt<L>(k, 22u), yhi, ylo);
  y = L::sel(L::mor(lt<L>(k, static_cast<u32>(-1)), gt<L>(k, 56u)), yfar, y);
  y = L::sel(eq<L>(k, 1u), yp1, y);
  y = L::sel(eq<L>(k, static_cast<u32>(-1)), ym1, y);
  y = L::sel(eq<L>(k, 0u), y0, y);
  return L::sel(lt<L>(hx, 0x33000000u), x, y);
}

/// Half the lanes of exact_expf for |x| < 88, in double.
template <class L>
typename L::D v_expf_half(typename L::D xd) {
  using D = typename L::D;
  using Q = typename L::Q;
  const D inv = L::dset(kInvLn2N), shift = L::dset(kShift);
  D kd = L::dfma(inv, xd, shift);
  const Q ki = L::qbits(kd);
  kd = kd - shift;
  const D r = L::dfma(inv, xd, -kd);
  const Q tab = L::gather(kExp2Tab, L::qand(ki, L::qset(31)));
  const D s = L::dbits(L::qadd(tab, L::qshl(ki, 47)));
  const D z = L::dfma(r, L::dset(kC0), L::dset(kC1));
  const D r2 = r * r;
  D y = L::dfma(r, L::dset(kC2), L::dset(1.0));
  y = L::dfma(z, r2, y);
  return y * s;
}

/// exact_expf for |x| < 88.
template <class L>
typename L::F v_expf_core(typename L::F x) {
  return L::join(v_expf_half<L>(L::lo(x)), v_expf_half<L>(L::hi(x)));
}

template <class L>
typename L::F v_expf(typename L::F x) {
  const typename L::I ax = L::iand(L::bits(x), L::iset(0x7fffffffu));
  return patch<L, exact_expf>(v_expf_core<L>(x), x, lt<L>(ax, 0x42b00000u));
}

/// tanh and cosh share their common range, 2^-55 <= |x| < 22.
template <class L>
typename L::M hyperbolic_range(typename L::I ax) {
  return L::mandnot(lt<L>(ax, 0x24000000u), lt<L>(ax, 0x41b00000u));
}

template <class L>
typename L::F v_tanhf(typename L::F x) {
  using F = typename L::F;
  const F sign = L::fand(x, L::set(-0.f));
  const F ax = L::fxor(x, sign);
  const typename L::M big = gt<L>(L::bits(ax), 0x3f7fffffu);  // |x| >= 1
  // expm1f(2|x|) at |x| >= 1, expm1f(-2|x|) below.
  const F two_ax = ax + ax;
  const F t = v_expm1f<L>(L::sel(big, two_ax, -two_ax));
  const F q = L::sel(big, L::set(2.f), -t) / (t + L::set(2.f));
  const F z = L::sel(big, L::set(1.f) - q, q);
  return patch<L, exact_tanhf>(L::fxor(z, sign), x,
                               hyperbolic_range<L>(L::bits(ax)));
}

template <class L>
typename L::F v_coshf(typename L::F x) {
  using F = typename L::F;
  const F ax = L::fandnot(L::set(-0.f), x);
  const typename L::M fast = hyperbolic_range<L>(L::bits(ax));
  const typename L::M small = lt<L>(L::bits(ax), 0x3eb17218u);  // < ln2 / 2
  const unsigned m_fast = L::mbits(fast);
  const unsigned m_small = L::mbits(L::mand(small, fast));
  F ys = L::zero(), yb = L::zero();
  if (m_small != 0) {
    const F t = v_expm1f<L>(ax);
    const F w = L::set(1.f) + t;
    ys = L::set(1.f) + (t * t) / (w + w);
  }
  if (m_small != m_fast) {
    const F t = v_expf_core<L>(ax);
    yb = L::set(0.5f) * t + L::set(0.5f) / t;
  }
  return patch<L, exact_coshf>(L::sel(small, ys, yb), x, fast);
}

/// out[i] = VF's lanes for whole vectors of x, SF one at a time after.
template <class L, typename L::F (*VF)(typename L::F), float (*SF)(float)>
void map_n(float* out, const float* x, std::size_t n) {
  constexpr std::size_t kW = L::kW;
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) L::store(out + i, VF(L::load(x + i)));
  for (; i < n; ++i) out[i] = SF(x[i]);
}

}  // namespace

void exact_expf_n(float* out, const float* x, std::size_t n) {
  map_n<Wide, v_expf<Wide>, exact_expf>(out, x, n);
}
void exact_tanhf_n(float* out, const float* x, std::size_t n) {
  map_n<Wide, v_tanhf<Wide>, exact_tanhf>(out, x, n);
}
void exact_coshf_n(float* out, const float* x, std::size_t n) {
  map_n<Wide, v_coshf<Wide>, exact_coshf>(out, x, n);
}
#else
void exact_expf_n(float* out, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exact_expf(x[i]);
}
void exact_tanhf_n(float* out, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exact_tanhf(x[i]);
}
void exact_coshf_n(float* out, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exact_coshf(x[i]);
}
#endif

// ===========================================================================
// Training kernels.
// ===========================================================================
namespace {

/// out[i] = exact_expf(in[i] - maxv) for i < n; returns their float sum in
/// ascending i, the softmax loops' sequence.
float exp_shifted(float* out, const float* in, float maxv, int n) {
  int i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  using L = Wide;
  for (; i + L::kW <= n; i += L::kW) {
    L::store(out + i, v_expf<L>(L::load(in + i) - L::set(maxv)));
  }
#endif
  for (; i < n; ++i) out[i] = exact_expf(in[i] - maxv);
  float sum = 0.f;
  for (i = 0; i < n; ++i) sum += out[i];
  return sum;
}

/// GELU with matmul_bias_gelu_forward's tanh argument: kS * (x + 0.044715
/// x^3) with one rounding for the inner multiply-add where madd_is_fused(),
/// which is how the compiler used to contract gelu_scalar there.
inline float gelu_epilogue_scalar(float x) {
#if defined(__FP_FAST_FMAF)
  constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
  const float t = exact_tanhf(kS * std::fma(0.044715f * x * x, x, x));
  return (t + 1.f) * (0.5f * x);
#else
  return gelu_scalar(x);
#endif
}

// ---- attention --------------------------------------------------------------
// F8 is a group of eight float lanes: an AVX2 register where the build has
// one, a float[8] loop otherwise. Every operation works lane by lane, so a
// lane computes exactly the scalar loop's sequence for its element, and the
// two builds give the same bits.
#if defined(__AVX2__) && defined(__FMA__)
struct F8 {
  __m256 v;
};
inline F8 f8_load(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void f8_store(float* p, F8 x) { _mm256_storeu_ps(p, x.v); }
inline F8 f8_set(float x) { return {_mm256_set1_ps(x)}; }
inline F8 operator+(F8 a, F8 b) { return {_mm256_add_ps(a.v, b.v)}; }
inline F8 operator-(F8 a, F8 b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline F8 operator*(F8 a, F8 b) { return {_mm256_mul_ps(a.v, b.v)}; }
/// `x > m ? x : m` per lane (m where x is NaN).
inline F8 f8_max(F8 x, F8 m) { return {_mm256_max_ps(x.v, m.v)}; }
/// a with lane `lane` taken from b; a itself when lane is outside [0, 8).
inline F8 f8_with_lane(F8 a, F8 b, int lane) {
  const __m256i hit = L8::eq(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                             _mm256_set1_epi32(lane));
  return {L8::sel(hit, b.v, a.v)};
}
inline float f8_hmax(F8 x) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(x.v),
                        _mm256_extractf128_ps(x.v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  return _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps(m, m, 1)));
}
inline F8 f8_exp(F8 x) { return {v_expf<L8>(x.v)}; }
#else
struct F8 {
  float v[8];
};
inline F8 f8_load(const float* p) {
  F8 r;
  for (int l = 0; l < 8; ++l) r.v[l] = p[l];
  return r;
}
inline void f8_store(float* p, F8 x) {
  for (int l = 0; l < 8; ++l) p[l] = x.v[l];
}
inline F8 f8_set(float x) {
  F8 r;
  for (float& l : r.v) l = x;
  return r;
}
inline F8 operator+(F8 a, F8 b) {
  for (int l = 0; l < 8; ++l) a.v[l] = a.v[l] + b.v[l];
  return a;
}
inline F8 operator-(F8 a, F8 b) {
  for (int l = 0; l < 8; ++l) a.v[l] = a.v[l] - b.v[l];
  return a;
}
inline F8 operator*(F8 a, F8 b) {
  for (int l = 0; l < 8; ++l) a.v[l] = a.v[l] * b.v[l];
  return a;
}
inline F8 f8_max(F8 x, F8 m) {
  for (int l = 0; l < 8; ++l) m.v[l] = x.v[l] > m.v[l] ? x.v[l] : m.v[l];
  return m;
}
inline F8 f8_with_lane(F8 a, F8 b, int lane) {
  if (lane >= 0 && lane < 8) a.v[lane] = b.v[lane];
  return a;
}
inline float f8_hmax(F8 x) {
  float m = x.v[0];
  for (int l = 1; l < 8; ++l) m = x.v[l] > m ? x.v[l] : m;
  return m;
}
inline F8 f8_exp(F8 x) {
  for (float& l : x.v) l = exact_expf(l);
  return x;
}
#endif

/// Lane groups covering n keys.
inline int groups(int n) { return (n + 7) / 8; }

/// out[t2] = sum_i x[i] * xt[i * ldk + t2] over the first 8 * M lanes from
/// out. Each lane starts at +0 and adds its products in ascending i, the
/// scalar dot product's sequence; M groups share each x[i].
template <int M>
void dot_groups(float* out, const float* x, const float* xt, std::size_t ldk,
                int hs) {
  F8 acc[M];
  for (F8& a : acc) a = f8_set(0.f);
  for (int i = 0; i < hs; ++i) {
    const F8 xi = f8_set(x[i]);
    const float* row = xt + static_cast<std::size_t>(i) * ldk;
    for (int k = 0; k < M; ++k) acc[k] = acc[k] + xi * f8_load(row + 8 * k);
  }
  for (int k = 0; k < M; ++k) f8_store(out + 8 * k, acc[k]);
}

/// dot_groups over nv groups of lanes.
void dot_row(float* out, const float* x, const float* xt, std::size_t ldk,
             int nv, int hs) {
  int j = 0;
  for (; j + 4 <= nv; j += 4) {
    dot_groups<4>(out + 8 * j, x, xt + 8 * j, ldk, hs);
  }
  for (; j < nv; ++j) dot_groups<1>(out + 8 * j, x, xt + 8 * j, ldk, hs);
}

/// a[t2] = softmax over t2 < n of (q . key t2) / sqrt(hs), with
/// attention_forward_ref's operations: scaled dot, running max from -1e30,
/// exact_expf of the difference, ascending sum, one reciprocal. The max of
/// a set is the same in any order, up to the sign of a zero, which
/// exact_expf(s - max) does not see. Lanes past n up to groups(n) * 8 are
/// written too and hold nothing anyone reads.
void softmax_row(float* a, const float* q, const float* kt, std::size_t ldk,
                 int n, int hs) {
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  const int nv = groups(n);
  dot_row(a, q, kt, ldk, nv, hs);
  for (int j = 0; j < nv; ++j) {
    f8_store(a + 8 * j, f8_load(a + 8 * j) * f8_set(scale));
  }
  for (int t2 = n; t2 < 8 * nv; ++t2) a[t2] = -1e30f;
  F8 mx = f8_set(-1e30f);
  for (int j = 0; j < nv; ++j) mx = f8_max(f8_load(a + 8 * j), mx);
  const float maxv = f8_hmax(mx);
  // Spare lanes take exp(0), which stays on the vector path.
  for (int t2 = n; t2 < 8 * nv; ++t2) a[t2] = maxv;
  for (int j = 0; j < nv; ++j) {
    f8_store(a + 8 * j, f8_exp(f8_load(a + 8 * j) - f8_set(maxv)));
  }
  float sum = 0.f;
  for (int t2 = 0; t2 < n; ++t2) sum += a[t2];
  const float inv = sum > 0.f ? 1.f / sum : 0.f;
  for (int j = 0; j < nv; ++j) {
    f8_store(a + 8 * j, f8_load(a + 8 * j) * f8_set(inv));
  }
}

/// Query-side tile: out row r (r < R, at out + r * ldo) += sum over t2 <
/// n0 + r of w[r * ldw + t2] * x row t2 (at x + t2 * ldx), one multiply then
/// add per key in ascending t2, for 8 * NV columns held in registers.
template <int R, int NV>
void rows_by_keys_block(float* out, std::size_t ldo, const float* w,
                        std::size_t ldw, const float* x, std::size_t ldx,
                        int n0) {
  F8 acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int k = 0; k < NV; ++k) acc[r][k] = f8_load(out + r * ldo + 8 * k);
  }
  const auto key = [&](int t2, int r_first) {
    F8 xv[NV];
    for (int k = 0; k < NV; ++k) xv[k] = f8_load(x + t2 * ldx + 8 * k);
    for (int r = r_first; r < R; ++r) {
      const F8 wr = f8_set(w[r * ldw + t2]);
      for (int k = 0; k < NV; ++k) acc[r][k] = acc[r][k] + wr * xv[k];
    }
  };
  for (int t2 = 0; t2 < n0; ++t2) key(t2, 0);
  for (int t2 = n0; t2 < n0 + R - 1; ++t2) key(t2, t2 - n0 + 1);
  for (int r = 0; r < R; ++r) {
    for (int k = 0; k < NV; ++k) f8_store(out + r * ldo + 8 * k, acc[r][k]);
  }
}

/// Key-side tile: out row r (key k0 + r, r < R) += sum over t from k0 + r
/// to L - 1 of w[t * ldw + k0 + r] * y row t, in ascending t.
template <int R, int NV>
void keys_by_rows_block(float* out, std::size_t ldo, const float* w,
                        std::size_t ldw, const float* y, std::size_t ldy,
                        int k0, int L) {
  F8 acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int k = 0; k < NV; ++k) acc[r][k] = f8_load(out + r * ldo + 8 * k);
  }
  const auto query = [&](int t, int r_last) {
    F8 yv[NV];
    for (int k = 0; k < NV; ++k) yv[k] = f8_load(y + t * ldy + 8 * k);
    for (int r = 0; r <= r_last; ++r) {
      const F8 wr = f8_set(w[t * ldw + k0 + r]);
      for (int k = 0; k < NV; ++k) acc[r][k] = acc[r][k] + wr * yv[k];
    }
  };
  for (int t = k0; t < k0 + R - 1; ++t) query(t, t - k0);
  for (int t = k0 + R - 1; t < L; ++t) query(t, R - 1);
  for (int r = 0; r < R; ++r) {
    for (int k = 0; k < NV; ++k) f8_store(out + r * ldo + 8 * k, acc[r][k]);
  }
}

template <int R>
void rows_by_keys_r(float* out, std::size_t ldo, const float* w,
                    std::size_t ldw, const float* x, std::size_t ldx, int n0,
                    int hs) {
  int c = 0;
  for (; c + 16 <= hs; c += 16) {
    rows_by_keys_block<R, 2>(out + c, ldo, w, ldw, x + c, ldx, n0);
  }
  for (; c + 8 <= hs; c += 8) {
    rows_by_keys_block<R, 1>(out + c, ldo, w, ldw, x + c, ldx, n0);
  }
  for (; c < hs; ++c) {  // a head size that is not a multiple of 8
    for (int r = 0; r < R; ++r) {
      float s = out[r * ldo + c];
      for (int t2 = 0; t2 < n0 + r; ++t2) {
        s += w[r * ldw + t2] * x[t2 * ldx + c];
      }
      out[r * ldo + c] = s;
    }
  }
}

/// rows_by_keys_block over hs columns for `rows` (1 to 4) query rows.
void rows_by_keys(float* out, std::size_t ldo, const float* w, std::size_t ldw,
                  const float* x, std::size_t ldx, int n0, int rows, int hs) {
  switch (rows) {
    case 1: rows_by_keys_r<1>(out, ldo, w, ldw, x, ldx, n0, hs); break;
    case 2: rows_by_keys_r<2>(out, ldo, w, ldw, x, ldx, n0, hs); break;
    case 3: rows_by_keys_r<3>(out, ldo, w, ldw, x, ldx, n0, hs); break;
    default: rows_by_keys_r<4>(out, ldo, w, ldw, x, ldx, n0, hs); break;
  }
}

template <int R>
void keys_by_rows_r(float* out, std::size_t ldo, const float* w,
                    std::size_t ldw, const float* y, std::size_t ldy, int k0,
                    int L, int hs) {
  int c = 0;
  for (; c + 16 <= hs; c += 16) {
    keys_by_rows_block<R, 2>(out + c, ldo, w, ldw, y + c, ldy, k0, L);
  }
  for (; c + 8 <= hs; c += 8) {
    keys_by_rows_block<R, 1>(out + c, ldo, w, ldw, y + c, ldy, k0, L);
  }
  for (; c < hs; ++c) {  // a head size that is not a multiple of 8
    for (int r = 0; r < R; ++r) {
      float s = out[r * ldo + c];
      for (int t = k0 + r; t < L; ++t) {
        s += w[t * ldw + k0 + r] * y[t * ldy + c];
      }
      out[r * ldo + c] = s;
    }
  }
}

/// keys_by_rows_block over hs columns for `rows` (1 to 4) key rows.
void keys_by_rows(float* out, std::size_t ldo, const float* w, std::size_t ldw,
                  const float* y, std::size_t ldy, int k0, int rows, int L,
                  int hs) {
  switch (rows) {
    case 1: keys_by_rows_r<1>(out, ldo, w, ldw, y, ldy, k0, L, hs); break;
    case 2: keys_by_rows_r<2>(out, ldo, w, ldw, y, ldy, k0, L, hs); break;
    case 3: keys_by_rows_r<3>(out, ldo, w, ldw, y, ldy, k0, L, hs); break;
    default: keys_by_rows_r<4>(out, ldo, w, ldw, y, ldy, k0, L, hs); break;
  }
}

/// g[t2] = scale * sum over t3 < n of (a[t3] * ([t2 == t3] - a[t2])) *
/// da[t3], the softmax Jacobian of attention_backward_ref, for the M lane
/// groups from g. The accumulators stay in registers across the whole t3
/// loop; off the diagonal the factor is the hoisted 0 - a[t2], and on it
/// the lane takes 1 - a[t2] instead. The sum starts at +0, so adding it to
/// the reference's zeroed dpreatt leaves it as it is.
template <int M>
void jacobian_groups(float* g, const float* a, const float* da, int n, int j0,
                     float scale) {
  F8 acc[M], nega[M], onem[M];
  for (int k = 0; k < M; ++k) {
    const F8 ak = f8_load(a + 8 * (j0 + k));
    acc[k] = f8_set(0.f);
    nega[k] = f8_set(0.f) - ak;
    onem[k] = f8_set(1.f) - ak;
  }
  const auto off_diagonal = [&](int t3) {
    const F8 a3 = f8_set(a[t3]), d3 = f8_set(da[t3]);
    for (int k = 0; k < M; ++k) acc[k] = acc[k] + (a3 * nega[k]) * d3;
  };
  const int d0 = 8 * j0, d1 = std::min(n, d0 + 8 * M);
  for (int t3 = 0; t3 < d0; ++t3) off_diagonal(t3);
  for (int t3 = d0; t3 < d1; ++t3) {
    const F8 a3 = f8_set(a[t3]), d3 = f8_set(da[t3]);
    for (int k = 0; k < M; ++k) {
      const F8 f = f8_with_lane(nega[k], onem[k], t3 - d0 - 8 * k);
      acc[k] = acc[k] + (a3 * f) * d3;
    }
  }
  for (int t3 = d1; t3 < n; ++t3) off_diagonal(t3);
  for (int k = 0; k < M; ++k) {
    f8_store(g + 8 * (j0 + k), acc[k] * f8_set(scale));
  }
}

/// jacobian_groups over every lane group of an n-key row. a must hold
/// groups(n) * 8 finite values.
void jacobian_row(float* g, const float* a, const float* da, int n,
                  float scale) {
  const int nv = groups(n);
  int j = 0;
  for (; j + 4 <= nv; j += 4) jacobian_groups<4>(g, a, da, n, j, scale);
  for (; j < nv; ++j) jacobian_groups<1>(g, a, da, n, j, scale);
}

/// Per-thread scratch for one (sequence, head); rows are padded to whole
/// lane groups (ld = groups(L) * 8) and the padding is zero.
struct AttnScratch {
  std::vector<float> xt;  // K (forward) or V (backward) transposed, [hs, ld]
  std::vector<float> row, arow, da;  // [ld] each
  std::vector<float> g;   // backward: dS / sqrt(hs), [L, ld]
};

AttnScratch& attn_scratch(int hs, int L, bool backward) {
  static thread_local AttnScratch s;
  const std::size_t ld = static_cast<std::size_t>(groups(L)) * 8;
  s.xt.assign(hs * ld, 0.f);
  s.row.assign(ld, 0.f);
  if (backward) {
    s.arow.assign(ld, 0.f);
    s.da.assign(ld, 0.f);
    if (s.g.size() < L * ld) s.g.resize(L * ld);
  }
  return s;
}

/// dst[i * ld + t2] = src[t2 * stride + i] for t2 < L, i < hs.
void transpose_head(float* dst, std::size_t ld, const float* src, int L,
                    int hs, std::size_t stride) {
  for (int t2 = 0; t2 < L; ++t2) {
    const float* row = src + t2 * stride;
    for (int i = 0; i < hs; ++i) dst[i * ld + t2] = row[i];
  }
}

/// Start of each sequence's att blocks; entry B is the total.
std::vector<std::size_t> att_offsets(const int* offs, int B, int NH) {
  std::vector<std::size_t> at(static_cast<std::size_t>(B) + 1, 0);
  for (int b = 0; b < B; ++b) {
    const std::size_t L = static_cast<std::size_t>(offs[b + 1] - offs[b]);
    at[b + 1] = at[b] + static_cast<std::size_t>(NH) * L * L;
  }
  return at;
}

/// Runs item(b, h) for every (sequence, head) on the pool. Each part takes
/// the next item when it finishes one, longest sequences first, so ragged
/// lengths do not leave threads idle; an item writes only its own outputs
/// from its own inputs, so which thread runs it does not change a bit.
template <typename Item>
void for_each_head(const int* offs, int B, int NH, int hs, bool backward,
                   const Item& item) {
  const auto len = [offs](int b) { return offs[b + 1] - offs[b]; };
  std::vector<int> order(B);
  for (int b = 0; b < B; ++b) order[b] = b;
  std::stable_sort(order.begin(), order.end(),
                   [&](int x, int y) { return len(x) > len(y); });
  // Rough flops of one item at the longest length, for the pool's split.
  const std::size_t L = B > 0 ? static_cast<std::size_t>(len(order[0])) : 0;
  const std::size_t work = L * L * (4 * static_cast<std::size_t>(hs) +
                                    (backward ? L : 8));
  std::atomic<int> next{0};
  const int total = B * NH;
  parallel_ranges(total, work, [&](int, int) {
    for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < total;) {
      if (len(order[i / NH]) > 0) item(order[i / NH], i % NH);
    }
  });
}

}  // namespace

std::size_t attention_att_size(const int* offs, int B, int NH) {
  return att_offsets(offs, B, NH)[B];
}

void attention_row(float* out, float* a, const float* q, const float* kt,
                   std::size_t ldk, const float* v, std::size_t ldv, int n,
                   int hs) {
  softmax_row(a, q, kt, ldk, n, hs);
  for (int i = 0; i < hs; ++i) out[i] = 0.f;
  rows_by_keys(out, 0, a, 0, v, ldv, n, 1, hs);
}

void attention_forward(float* out, float* att, const float* qkv,
                       const int* offs, int B, int C, int NH) {
  const int hs = C / NH;
  const std::size_t C3 = static_cast<std::size_t>(3) * C;
  const std::vector<std::size_t> at = att_offsets(offs, B, NH);
  for_each_head(offs, B, NH, hs, false, [&](int b, int h) {
    const int L = offs[b + 1] - offs[b];
    AttnScratch& s = attn_scratch(hs, L, false);
    const std::size_t ld = s.row.size();
    const float* qkv_b = qkv + static_cast<std::size_t>(offs[b]) * C3;
    float* out_b = out + static_cast<std::size_t>(offs[b]) * C + h * hs;
    float* att_bh = att + at[b] + static_cast<std::size_t>(h) * L * L;
    transpose_head(s.xt.data(), ld, qkv_b + C + h * hs, L, hs, C3);
    for (int t0 = 0; t0 < L; t0 += 4) {
      const int rows = std::min(4, L - t0);
      for (int t = t0; t < t0 + rows; ++t) {
        softmax_row(s.row.data(), qkv_b + t * C3 + h * hs, s.xt.data(), ld,
                    t + 1, hs);
        std::copy_n(s.row.data(), t + 1,
                    att_bh + static_cast<std::size_t>(t) * L);
        std::fill_n(out_b + t * static_cast<std::size_t>(C), hs, 0.f);
      }
      rows_by_keys(out_b + t0 * static_cast<std::size_t>(C), C,
                   att_bh + static_cast<std::size_t>(t0) * L, L,
                   qkv_b + 2 * C + h * hs, C3, t0 + 1, rows, hs);
    }
  });
}

void attention_backward(float* dqkv, const float* dout, const float* qkv,
                        const float* att, const int* offs, int B, int C,
                        int NH) {
  const int hs = C / NH;
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  const std::size_t C3 = static_cast<std::size_t>(3) * C;
  const std::vector<std::size_t> at = att_offsets(offs, B, NH);
  // The reference walks t outermost and h inside it; heads own disjoint
  // slices of dqkv, and dq, dk and dv are disjoint too, so each can run as
  // its own phase as long as every element keeps its order: dv[t2] and
  // dk[t2] ascending in t, dq[t] ascending in t2.
  for_each_head(offs, B, NH, hs, true, [&](int b, int h) {
    const int L = offs[b + 1] - offs[b];
    AttnScratch& s = attn_scratch(hs, L, true);
    const std::size_t ld = s.row.size();
    const std::size_t o = offs[b];
    const float* qkv_b = qkv + o * C3 + h * hs;
    float* dqkv_b = dqkv + o * C3 + h * hs;
    const float* dout_b = dout + o * C + h * hs;
    const float* att_bh = att + at[b] + static_cast<std::size_t>(h) * L * L;
    float* g = s.g.data();
    transpose_head(s.xt.data(), ld, qkv_b + 2 * C, L, hs, C3);
    for (int t = 0; t < L; ++t) {
      const int n = t + 1;
      std::copy_n(att_bh + static_cast<std::size_t>(t) * L, n, s.arow.data());
      std::fill(s.arow.begin() + n, s.arow.end(), 0.f);
      // da[t2] = v[t2] . dout[t], through the weighted sum of V.
      dot_row(s.da.data(), dout_b + t * static_cast<std::size_t>(C),
              s.xt.data(), ld, groups(n), hs);
      jacobian_row(g + t * ld, s.arow.data(), s.da.data(), n, scale);
    }
    for (int k0 = 0; k0 < L; k0 += 4) {
      const int rows = std::min(4, L - k0);
      keys_by_rows(dqkv_b + k0 * C3 + 2 * C, C3, att_bh, L, dout_b, C, k0,
                   rows, L, hs);                                       // dv
      keys_by_rows(dqkv_b + k0 * C3 + C, C3, g, ld, qkv_b, C3, k0, rows, L,
                   hs);                                                // dk
      rows_by_keys(dqkv_b + k0 * C3, C3, g + k0 * ld, ld, qkv_b + C, C3,
                   k0 + 1, rows, hs);                                  // dq
    }
  });
}

void layernorm_forward(float* out, float* mean, float* rstd, const float* inp,
                       const float* w, const float* b, const int* rows, int N,
                       int C) {
  parallel_ranges(N, static_cast<std::size_t>(8) * C, [&](int n0, int n1) {
    for (int n = n0; n < n1; ++n) {
      const float* x = inp + static_cast<std::size_t>(rows ? rows[n] : n) * C;
      float m = 0.f;
      for (int c = 0; c < C; ++c) m += x[c];
      m /= static_cast<float>(C);
      float v = 0.f;
      for (int c = 0; c < C; ++c) {
        const float d = x[c] - m;
        v += d * d;
      }
      v /= static_cast<float>(C);
      const float rs = 1.f / std::sqrt(v + 1e-5f);
      float* o = out + static_cast<std::size_t>(n) * C;
      for (int c = 0; c < C; ++c) o[c] = (x[c] - m) * rs * w[c] + b[c];
      mean[n] = m;
      rstd[n] = rs;
    }
  });
}

void layernorm_backward(float* dinp, float* dw, float* db, const float* dout,
                        const float* inp, const float* mean, const float* rstd,
                        const float* w, const int* rows, int N, int C) {
  // dinp: one row per output row.
  parallel_ranges(N, static_cast<std::size_t>(12) * C, [&](int n0, int n1) {
    for (int n = n0; n < n1; ++n) {
      const std::size_t r = static_cast<std::size_t>(rows ? rows[n] : n);
      const float* x = inp + r * C;
      const float* d = dout + static_cast<std::size_t>(n) * C;
      const float m = mean[n], rs = rstd[n];
      float dnorm_mean = 0.f, dnorm_norm_mean = 0.f;
      for (int c = 0; c < C; ++c) {
        const float norm = (x[c] - m) * rs;
        const float dnorm = w[c] * d[c];
        dnorm_mean += dnorm;
        dnorm_norm_mean += dnorm * norm;
      }
      dnorm_mean /= static_cast<float>(C);
      dnorm_norm_mean /= static_cast<float>(C);
      float* di = dinp + r * C;
      for (int c = 0; c < C; ++c) {
        const float norm = (x[c] - m) * rs;
        const float dnorm = w[c] * d[c];
        di[c] += (dnorm - dnorm_mean - norm * dnorm_norm_mean) * rs;
      }
    }
  });
  // dw/db sum over rows: each thread owns a channel range and walks the
  // rows in ascending order, as the reference does. The sums run in a
  // private buffer and are stored once, so no thread writes a cache line
  // it shares with a neighbouring channel range row after row.
  parallel_ranges(C, static_cast<std::size_t>(4) * N, [&](int c0, int c1) {
    static thread_local std::vector<float> sums;
    const int w = c1 - c0;
    sums.assign(dw + c0, dw + c1);
    sums.insert(sums.end(), db + c0, db + c1);
    float* sw = sums.data();
    float* sb = sw + w;
    for (int n = 0; n < N; ++n) {
      const std::size_t r = static_cast<std::size_t>(rows ? rows[n] : n);
      const float* x = inp + r * C + c0;
      const float* d = dout + static_cast<std::size_t>(n) * C + c0;
      const float m = mean[n], rs = rstd[n];
      for (int c = 0; c < w; ++c) {
        const float norm = (x[c] - m) * rs;
        sw[c] += norm * d[c];
        sb[c] += d[c];
      }
    }
    std::copy(sw, sw + w, dw + c0);
    std::copy(sb, sb + w, db + c0);
  });
}

void softmax_forward(float* probs, const float* logits, int N, int V) {
  parallel_ranges(N, static_cast<std::size_t>(16) * V, [&](int n0, int n1) {
    for (int n = n0; n < n1; ++n) {
      const float* l = logits + static_cast<std::size_t>(n) * V;
      float* p = probs + static_cast<std::size_t>(n) * V;
      // The max of a set in any order, up to a zero's sign, which
      // exp(l - max) does not see; NaN lanes are skipped, as the ternary
      // skips them.
      F8 mx = f8_set(-1e30f);
      int i = 0;
      for (; i + 8 <= V; i += 8) mx = f8_max(f8_load(l + i), mx);
      float maxv = f8_hmax(mx);
      for (; i < V; ++i) maxv = l[i] > maxv ? l[i] : maxv;
      const float inv = 1.f / exp_shifted(p, l, maxv, V);
      for (int v = 0; v < V; ++v) p[v] *= inv;
    }
  });
}

void gelu_epilogue(float* post, const float* pre, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  using L = Wide;
  using F = L::F;
  constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
  for (; i + L::kW <= n; i += L::kW) {
    const F x = L::load(pre + i);
    const F x2 = L::set(0.044715f) * x * x;
    const F t = v_tanhf<L>(L::set(kS) * L::fma(x2, x, x));
    L::store(post + i, (t + L::set(1.f)) * (L::set(0.5f) * x));
  }
#endif
  for (; i < n; ++i) post[i] = gelu_epilogue_scalar(pre[i]);
}

void gelu_backward(float* dinp, const float* inp, const float* dout, int N) {
  // Per element and free of reductions, so any split keeps the bits. The
  // vector body runs gelu_backward_ref's operations, unfused, in its order;
  // the tail runs gelu_backward_ref itself.
  parallel_ranges(N, 64, [&](int lo, int hi) {
    int i = lo;
#if defined(__AVX2__) && defined(__FMA__)
    using L = Wide;
    using F = L::F;
    constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
    constexpr float k3c = 3.f * 0.044715f;
    for (; i + L::kW <= hi; i += L::kW) {
      const F x = L::load(inp + i);
      const F cube = L::set(0.044715f) * x * x * x;
      const F arg = L::set(kS) * (x + cube);
      const F th = v_tanhf<L>(arg);
      const F ch = v_coshf<L>(arg);
      const F sech2 = L::set(1.f) / (ch * ch);
      const F poly = L::set(1.f) + L::set(k3c) * x * x;
      const F slope = x * L::set(0.5f) * sech2 * L::set(kS) * poly;
      const F local = L::set(0.5f) * (L::set(1.f) + th) + slope;
      L::store(dinp + i, L::load(dinp + i) + local * L::load(dout + i));
    }
#endif
    gelu_backward_ref(dinp + i, inp + i, dout + i, hi - i);
  });
}

}  // namespace chatfuzz::ml::kern
