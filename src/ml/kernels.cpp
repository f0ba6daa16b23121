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

#include "util/parse.h"

namespace chatfuzz::ml::kern {

// ===========================================================================
// Thread splitter: a lazily started persistent pool. Work is dispatched as a
// fixed list of disjoint [lo, hi) ranges — one per participant, computed from
// the range arithmetic alone — so the partitioning (and therefore every
// output bit) is independent of scheduling. The calling thread always
// executes partition 0 itself. One dispatch owns the pool at a time; any
// other call runs all of its partitions inline, in partition order.
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
// parity tolerance. Training keeps exact libm GELU (gelu_scalar) so
// gradients and the *_ref parity stay bit-comparable.

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

/// NB output rows in SAXPY order: each row starts at bias and accumulates
/// x[n, i] * wt_row_i with ascending i. Unit stride on every stream and no
/// loop-carried dependence in the oc loop, so it vectorizes as-is — and
/// blocking NB rows per weight pass means the packed matrix is streamed
/// from memory once per block instead of once per row (the matvec is
/// bandwidth-bound; this is worth more than any further unrolling).
/// Accumulation order per output element is ascending i for every NB, so
/// results do not depend on the blocking.
template <int NB>
void rows_forward_packed(float* out, const float* inp, const float* wt,
                         const float* bias, int Cin, int Cout) {
  for (int n = 0; n < NB; ++n) {
    float* o = out + static_cast<std::size_t>(n) * Cout;
    if (bias != nullptr) {
      for (int oc = 0; oc < Cout; ++oc) o[oc] = bias[oc];
    } else {
      for (int oc = 0; oc < Cout; ++oc) o[oc] = 0.f;
    }
  }
  for (int i = 0; i < Cin; ++i) {
    const float* wr = wt + static_cast<std::size_t>(i) * Cout;
    for (int n = 0; n < NB; ++n) {
      const float a = inp[static_cast<std::size_t>(n) * Cin + i];
      float* o = out + static_cast<std::size_t>(n) * Cout;
      for (int oc = 0; oc < Cout; ++oc) o[oc] += a * wr[oc];
    }
  }
}

/// Forward rows [n0, n1) against a packed matrix, blocked 8/4/1.
void range_forward_packed(float* out, const float* inp, const float* wt,
                          const float* bias, int n0, int n1, int Cin,
                          int Cout) {
  int n = n0;
  for (; n + 8 <= n1; n += 8) {
    rows_forward_packed<8>(out + static_cast<std::size_t>(n) * Cout,
                           inp + static_cast<std::size_t>(n) * Cin, wt, bias,
                           Cin, Cout);
  }
  for (; n + 4 <= n1; n += 4) {
    rows_forward_packed<4>(out + static_cast<std::size_t>(n) * Cout,
                           inp + static_cast<std::size_t>(n) * Cin, wt, bias,
                           Cin, Cout);
  }
  for (; n < n1; ++n) {
    rows_forward_packed<1>(out + static_cast<std::size_t>(n) * Cout,
                           inp + static_cast<std::size_t>(n) * Cin, wt, bias,
                           Cin, Cout);
  }
}

/// Per-thread transpose scratch. Each campaign/training thread that calls
/// matmul_forward keeps its own buffer, so concurrent models never share.
std::vector<float>& transpose_scratch() {
  static thread_local std::vector<float> scratch;
  return scratch;
}

/// Transpose w [Cout, Cin] into scratch [Cin, Cout], blocked so each tile's
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
  range_forward_packed(out, inp, wt.t.data(), bias, 0, N, wt.cin, wt.cout);
}

void matmul_bias_gelu_forward_packed(float* pre, float* post, const float* inp,
                                     const PackedMat& wt, const float* bias,
                                     int N) {
  range_forward_packed(pre, inp, wt.t.data(), bias, 0, N, wt.cin, wt.cout);
  const std::size_t cnt = static_cast<std::size_t>(N) * wt.cout;
  for (std::size_t k = 0; k < cnt; ++k) post[k] = gelu_fast(pre[k]);
}

void matmul_forward(float* out, const float* inp, const float* w,
                    const float* bias, int N, int Cin, int Cout) {
  std::vector<float>& wt = transpose_scratch();
  wt.resize(static_cast<std::size_t>(Cout) * Cin);
  transpose_into(wt.data(), w, Cout, Cin);
  parallel_ranges(N, static_cast<std::size_t>(Cin) * Cout, [&](int n0, int n1) {
    range_forward_packed(out, inp, wt.data(), bias, n0, n1, Cin, Cout);
  });
}

void matmul_bias_gelu_forward(float* pre, float* post, const float* inp,
                              const float* w, const float* bias, int N,
                              int Cin, int Cout) {
  std::vector<float>& wt = transpose_scratch();
  wt.resize(static_cast<std::size_t>(Cout) * Cin);
  transpose_into(wt.data(), w, Cout, Cin);
  parallel_ranges(N, static_cast<std::size_t>(Cin) * Cout, [&](int n0, int n1) {
    range_forward_packed(pre, inp, wt.data(), bias, n0, n1, Cin, Cout);
    float* p = pre + static_cast<std::size_t>(n0) * Cout;
    float* g = post + static_cast<std::size_t>(n0) * Cout;
    const std::size_t cnt = static_cast<std::size_t>(n1 - n0) * Cout;
    for (std::size_t k = 0; k < cnt; ++k) g[k] = gelu_scalar(p[k]);
  });
}

void matmul_backward(float* dinp, float* dw, float* dbias, const float* dout,
                     const float* inp, const float* w, int N, int Cin,
                     int Cout) {
  // dinp[n, :] += sum_oc dout[n, oc] * w[oc, :] — already SAXPY over i in
  // the reference order; rows are independent, so split by n.
  parallel_ranges(N, static_cast<std::size_t>(Cin) * Cout, [&](int n0, int n1) {
    for (int n = n0; n < n1; ++n) {
      const float* d = dout + static_cast<std::size_t>(n) * Cout;
      float* di = dinp + static_cast<std::size_t>(n) * Cin;
      for (int oc = 0; oc < Cout; ++oc) {
        const float* wr = w + static_cast<std::size_t>(oc) * Cin;
        const float g = d[oc];
        for (int i = 0; i < Cin; ++i) di[i] += g * wr[i];
      }
    }
  });
  // dw[oc, :] += sum_n dout[n, oc] * inp[n, :], dbias[oc] += sum_n dout[n, oc].
  // Each thread owns a contiguous oc range and walks n in ascending order,
  // so every dw/dbias element sees the same accumulation order as the
  // reference no matter how many threads run.
  parallel_ranges(Cout, static_cast<std::size_t>(Cin) * N, [&](int o0, int o1) {
    for (int n = 0; n < N; ++n) {
      const float* d = dout + static_cast<std::size_t>(n) * Cout;
      const float* x = inp + static_cast<std::size_t>(n) * Cin;
      for (int oc = o0; oc < o1; ++oc) {
        float* dwr = dw + static_cast<std::size_t>(oc) * Cin;
        const float g = d[oc];
        if (dbias != nullptr) dbias[oc] += g;
        for (int i = 0; i < Cin; ++i) dwr[i] += g * x[i];
      }
    }
  });
}

void gelu_forward(float* out, const float* inp, int N) {
  gelu_forward_ref(out, inp, N);
}

void gelu_backward(float* dinp, const float* inp, const float* dout, int N) {
  // Per element and free of reductions, so any split keeps the bits; the
  // work runs in kernels_ref.cpp's loop, whose tanh argument is not fused.
  parallel_ranges(N, 64, [&](int lo, int hi) {
    gelu_backward_ref(dinp + lo, inp + lo, dout + lo, hi - lo);
  });
}

}  // namespace chatfuzz::ml::kern
