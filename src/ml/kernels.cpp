#include "ml/kernels.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>

#include "ml/lanes.h"
#include "util/parse.h"

namespace chatfuzz::ml::kern {

// ===========================================================================
// Thread splitter: a lazily started persistent pool. Work is dispatched as a
// fixed list of disjoint [lo, hi) ranges — one per participant, computed from
// the range arithmetic alone — or as items that each participant takes from
// a shared counter. Either way every output is written by one participant
// from inputs no other participant writes, so every output bit is
// independent of scheduling. The calling thread always executes partition 0
// itself. One dispatch owns the pool at a time; any other call runs all of
// its partitions inline, in partition order.
// ===========================================================================
namespace {

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() { shutdown(); }

  void ensure_workers(int workers) {
    if (static_cast<int>(threads_.size()) >= workers) return;
    const std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(threads_.size()) < workers) {
      const int id = static_cast<int>(threads_.size());
      threads_.emplace_back([this, id] { worker_loop(id); });
    }
  }

  /// Run fn(part) for part in [0, parts) using parts-1 pooled workers plus
  /// the caller. Returns after every part has finished. While the pool is
  /// busy — a second calling thread, or a kernel inside a pool body — the
  /// caller runs every part itself: the dispatch has a single slot.
  void run(int parts, const std::function<void(int)>& fn) {
    assert(parts >= 1);
    if (parts == 1 || busy_.exchange(true, std::memory_order_acquire)) {
      for (int part = 0; part < parts; ++part) fn(part);
      return;
    }
    ensure_workers(parts - 1);
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      parts_ = parts;
      pending_ = parts - 1;
      ++epoch_;
    }
    cv_.notify_all();
    fn(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
    busy_.store(false, std::memory_order_release);
  }

  std::size_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(int id) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      int part = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return quit_ || (epoch_ != seen && id + 1 < parts_); });
        if (quit_) return;
        seen = epoch_;
        fn = fn_;
        part = id + 1;  // the caller runs part 0
      }
      (*fn)(part);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  void shutdown() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  const std::function<void(int)>* fn_ = nullptr;
  int parts_ = 0;
  int pending_ = 0;
  std::uint64_t epoch_ = 0;
  bool quit_ = false;
  std::atomic<bool> busy_{false};
  std::atomic<std::size_t> dispatches_{0};
};

std::atomic<int> g_threads{0};  // 0 = not yet initialized from the environment

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Deterministic contiguous partition of [0, total) into `parts` ranges.
std::pair<int, int> partition(int total, int parts, int part) {
  const int base = total / parts, rem = total % parts;
  const int lo = part * base + (part < rem ? part : rem);
  return {lo, lo + base + (part < rem ? 1 : 0)};
}

// ---- vectorizable GELU for the incremental-decode path ---------------------
// libm tanhf is scalar and dominates gen_step once the matmuls are packed
// (4C GELUs per layer per lane per token). This branch-free polynomial
// tanh — exp2-style range reduction, degree-5 e^r polynomial, bit-trick
// scale — is pure float arithmetic, so the whole activation loop
// auto-vectorizes. |rel err| < 3e-6, far inside the generation path's
// parity tolerance. Training keeps the exact GELU (gelu_epilogue, whose
// vector tanh has exact_tanhf's bits) so gradients and the *_ref parity
// stay bit-comparable.

inline float fast_exp(float x) {
  x = x < -87.f ? -87.f : x;
  x = x > 88.f ? 88.f : x;
  const float nf = std::floor(x * 1.44269504089f + 0.5f);
  const float r = x - nf * 0.69314718056f;
  float p = 0.008333333f;
  p = p * r + 0.041666667f;
  p = p * r + 0.166666667f;
  p = p * r + 0.5f;
  p = p * r + 1.f;
  p = p * r + 1.f;
  const std::int32_t bits = (static_cast<std::int32_t>(nf) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

inline float fast_tanh(float x) {
  const float xc = x < -9.f ? -9.f : (x > 9.f ? 9.f : x);
  const float e = fast_exp(2.f * xc);
  return (e - 1.f) / (e + 1.f);
}

inline float gelu_fast(float x) {
  constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
  const float cube = 0.044715f * x * x * x;
  return 0.5f * x * (1.f + fast_tanh(kS * (x + cube)));
}

// ---- register-tiled GEMM ---------------------------------------------------
// Every matmul here is one shape: C[m, j] = start + sum_k A(m, k) * B[k, j],
// with B and C unit-stride over j. The start value is the bias, zero, or C
// itself (the backward passes accumulate into their gradients). Each output
// element gets one multiply-add per k, in ascending k, whatever the tiling,
// the thread split or the k-blocking: the bits are those of a scalar chain
// of multiply-adds. The multiply-add is the lane type's fma: one rounding
// where the target has a fast fmaf (x86 FMA, aarch64 and others alike), two
// (multiply, then add) where it does not. Both are spelled out rather than
// left to FP contraction, which the compiler may apply to some loops of a
// kernel and not to others.
//
// A tile holds kMR rows of two lane vectors, 6 x 32 outputs at 16 lanes and
// 6 x 16 at 8, in registers while k runs innermost, so an accumulator is
// loaded and stored once per k-block instead of once per k.
#if defined(__FP_FAST_FMAF)
constexpr bool kFma = true;
#else
constexpr bool kFma = false;
#endif

#if defined(__AVX2__) && defined(__FMA__)
using Lanes = simd::Wide;
#else
using Lanes = simd::Portable;
#endif

constexpr int kMR = 6;  // rows per tile: 2 x kMR accumulators + 3 inputs
constexpr int kNR = 2 * Lanes::kW;  // columns per tile
constexpr int kKC = 256;  // k per block; a C reload between blocks is exact

struct Gemm {
  const float* a;
  std::size_t a_row, a_k;  // A(m, k) = a[m * a_row + k * a_k]
  const float* b;
  std::size_t ldb;  // B[k, j] = b[k * ldb + j]
  float* c;
  std::size_t ldc;  // C[m, j] = c[m * ldc + j]
  const float* bias;  // start value bias[j] (null: zero) unless accumulating
  bool accumulate;    // start from C itself
  int K, cols;
};

/// Tile of MR rows from m and w <= 2W columns from j over k in [k0, k1), in
/// 2 * MR accumulators of W lanes. `from_c` starts from C (accumulating, or
/// any k-block after the first). A tail tile (w < 2W) masks its loads and
/// stores; its dead lanes compute on zeros and are never stored. With
/// w <= W the upper half's mask is empty, and its pointers stay at the
/// lower half's so that none points past the end of a row.
template <class L, int MR, bool kTail>
void tile(const Gemm& g, int m, int j, int w, int k0, int k1, bool from_c) {
  using F = typename L::F;
  constexpr int W = L::kW;
  const typename L::M lo = L::first(w), hi = L::first(w - W);
  const int h = kTail && w <= W ? 0 : W;  // offset of the upper half
  const auto load = [&](const float* p, typename L::M mask) {
    if constexpr (kTail) return L::load(p, mask);
    return L::load(p);
  };
  F acc[MR][2];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    if (from_c) {
      const float* cr = g.c + (m + r) * g.ldc + j;
      acc[r][0] = load(cr, lo);
      acc[r][1] = load(cr + h, hi);
    } else if (g.bias != nullptr) {
      acc[r][0] = load(g.bias + j, lo);
      acc[r][1] = load(g.bias + j + h, hi);
    } else {
      acc[r][0] = acc[r][1] = L::zero();
    }
  }
  const std::size_t a_row = g.a_row, a_k = g.a_k, ldb = g.ldb;
  const float* ak = g.a + m * a_row + k0 * a_k;
  const float* bk = g.b + k0 * ldb + j;
  for (int k = k0; k < k1; ++k) {
    const F b0 = load(bk, lo);
    const F b1 = load(bk + h, hi);
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const F a = L::set(ak[r * a_row]);
      acc[r][0] = L::fma(a, b0, acc[r][0]);
      acc[r][1] = L::fma(a, b1, acc[r][1]);
    }
    if (k + 1 < k1) {  // never step a pointer past its array
      ak += a_k;
      bk += ldb;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    float* cr = g.c + (m + r) * g.ldc + j;
    if constexpr (kTail) {
      L::store(cr, lo, acc[r][0]);
      L::store(cr + h, hi, acc[r][1]);
    } else {
      L::store(cr, acc[r][0]);
      L::store(cr + W, acc[r][1]);
    }
  }
}

/// Rows [m0, m1) of C, every column, every k.
void gemm_rows(const Gemm& g, int m0, int m1) {
  using TileFn = void (*)(const Gemm&, int, int, int, int, int, bool);
  static_assert(kMR == 6, "the tables below list one tile per row count");
  static constexpr TileFn kFull[kMR + 1] = {
      nullptr,
      tile<Lanes, 1, false>, tile<Lanes, 2, false>, tile<Lanes, 3, false>,
      tile<Lanes, 4, false>, tile<Lanes, 5, false>, tile<Lanes, 6, false>};
  static constexpr TileFn kPart[kMR + 1] = {
      nullptr,
      tile<Lanes, 1, true>, tile<Lanes, 2, true>, tile<Lanes, 3, true>,
      tile<Lanes, 4, true>, tile<Lanes, 5, true>, tile<Lanes, 6, true>};
  int k0 = 0;
  do {
    const int k1 = g.K - k0 < kKC ? g.K : k0 + kKC;
    const bool from_c = g.accumulate || k0 > 0;
    for (int j = 0; j < g.cols; j += kNR) {
      const int w = g.cols - j < kNR ? g.cols - j : kNR;
      const TileFn* tiles = w == kNR ? kFull : kPart;
      for (int m = m0; m < m1; m += kMR) {
        tiles[m1 - m < kMR ? m1 - m : kMR](g, m, j, w, k0, k1, from_c);
      }
    }
    k0 = k1;
  } while (k0 < g.K);
}

/// out[n, o] = bias[o] (or 0) + sum_i inp[n, i] * wt[i, o] for n in [n0, n1).
void forward_rows(float* out, const float* inp, const float* wt,
                  const float* bias, int n0, int n1, int Cin, int Cout) {
  const auto cin = static_cast<std::size_t>(Cin);
  const auto cout = static_cast<std::size_t>(Cout);
  gemm_rows(Gemm{.a = inp, .a_row = cin, .a_k = 1, .b = wt, .ldb = cout,
                 .c = out, .ldc = cout, .bias = bias, .accumulate = false,
                 .K = Cin, .cols = Cout},
            n0, n1);
}

/// Transpose w [Cout, Cin] into dst [Cin, Cout], blocked so each tile's
/// source and destination lines stay cache-resident; the inner loop walks
/// the destination contiguously (strided reads prefetch much better than
/// strided writes).
void transpose_into(float* dst, const float* w, int Cout, int Cin) {
  constexpr int kB = 32;
  for (int i0 = 0; i0 < Cin; i0 += kB) {
    const int i1 = i0 + kB < Cin ? i0 + kB : Cin;
    for (int o0 = 0; o0 < Cout; o0 += kB) {
      const int o1 = o0 + kB < Cout ? o0 + kB : Cout;
      for (int i = i0; i < i1; ++i) {
        float* drow = dst + static_cast<std::size_t>(i) * Cout;
        for (int oc = o0; oc < o1; ++oc) {
          drow[oc] = w[static_cast<std::size_t>(oc) * Cin + i];
        }
      }
    }
  }
}

}  // namespace

int env_threads() {
  const int hw = hardware_threads();
  const char* env = std::getenv("CHATFUZZ_ML_THREADS");
  if (env == nullptr) return hw;
  const auto parsed = parse_count(env);
  if (!parsed) {
    std::fprintf(stderr,
                 "[kernels] ignoring malformed CHATFUZZ_ML_THREADS=\"%s\" "
                 "(using %d threads)\n",
                 env, hw);
    return hw;
  }
  if (*parsed == 0 || *parsed > static_cast<std::size_t>(hw)) return hw;
  return static_cast<int>(*parsed);
}

int num_threads() {
  int n = g_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    int unset = 0;
    g_threads.compare_exchange_strong(unset, env_threads(),
                                      std::memory_order_relaxed);
    n = g_threads.load(std::memory_order_relaxed);
  }
  return n;
}

void set_num_threads(int n) {
  g_threads.store(n < 1 ? 1 : n, std::memory_order_relaxed);
}

void parallel_ranges(int total, std::size_t work_per_item,
                     const std::function<void(int, int)>& body) {
  constexpr std::size_t kMinWorkPerThread = 1 << 15;
  int parts = num_threads();
  if (parts > total) parts = total;
  if (parts > 1 &&
      static_cast<std::size_t>(total) * work_per_item / parts < kMinWorkPerThread) {
    parts = 1;
  }
  if (parts <= 1) {
    body(0, total);
    return;
  }
  Pool::instance().run(parts, [&](int part) {
    const auto [lo, hi] = partition(total, parts, part);
    body(lo, hi);
  });
}

void parallel_items(int total, std::size_t work_per_item,
                    const std::function<void(int)>& body) {
  std::atomic<int> next{0};
  parallel_ranges(total, work_per_item, [&](int, int) {
    for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < total;) {
      body(i);
    }
  });
}

std::size_t pool_dispatches() { return Pool::instance().dispatches(); }

// ===========================================================================
// Optimized kernels.
// ===========================================================================
void pack_transpose(PackedMat& dst, const float* w, int Cout, int Cin) {
  dst.cout = Cout;
  dst.cin = Cin;
  dst.t.resize(static_cast<std::size_t>(Cout) * Cin);
  transpose_into(dst.t.data(), w, Cout, Cin);
}

void matmul_forward_packed(float* out, const float* inp, const PackedMat& wt,
                           const float* bias, int N) {
  forward_rows(out, inp, wt.t.data(), bias, 0, N, wt.cin, wt.cout);
}

void matmul_bias_gelu_forward_packed(float* pre, float* post, const float* inp,
                                     const PackedMat& wt, const float* bias,
                                     int N) {
  forward_rows(pre, inp, wt.t.data(), bias, 0, N, wt.cin, wt.cout);
  const std::size_t cnt = static_cast<std::size_t>(N) * wt.cout;
  for (std::size_t k = 0; k < cnt; ++k) post[k] = gelu_fast(pre[k]);
}

bool madd_is_fused() { return kFma; }

void matmul_bias_gelu_forward(float* pre, float* post, const float* inp,
                              const PackedMat& wt, const float* bias, int N) {
  forward_rows(pre, inp, wt.t.data(), bias, 0, N, wt.cin, wt.cout);
  gelu_epilogue(post, pre, static_cast<std::size_t>(N) * wt.cout);
}

void matmul_backward_dx(float* dinp, const float* dout, const float* w, int N,
                        int Cin, int Cout) {
  // dinp[n, i] += sum_oc dout[n, oc] * w[oc, i]: w is already [K, cols].
  const auto cin = static_cast<std::size_t>(Cin);
  const auto cout = static_cast<std::size_t>(Cout);
  gemm_rows(Gemm{.a = dout, .a_row = cout, .a_k = 1, .b = w, .ldb = cin,
                 .c = dinp, .ldc = cin, .bias = nullptr, .accumulate = true,
                 .K = Cout, .cols = Cin},
            0, N);
}

void matmul_backward_dw(float* dw, float* dbias, const float* dout,
                        const float* inp, int N, int Cin, int Cout, int o0,
                        int o1) {
  // dw[oc, i] += sum_n dout[n, oc] * inp[n, i], A(oc, n) = dout[n, oc]; every
  // element sums over n in ascending order, as the reference does.
  const auto cin = static_cast<std::size_t>(Cin);
  const auto cout = static_cast<std::size_t>(Cout);
  gemm_rows(Gemm{.a = dout, .a_row = 1, .a_k = cout, .b = inp, .ldb = cin,
                 .c = dw, .ldc = cin, .bias = nullptr, .accumulate = true,
                 .K = N, .cols = Cin},
            o0, o1);
  if (dbias == nullptr) return;
  for (int n = 0; n < N; ++n) {
    const float* d = dout + static_cast<std::size_t>(n) * cout;
    for (int oc = o0; oc < o1; ++oc) dbias[oc] += d[oc];
  }
}

}  // namespace chatfuzz::ml::kern
