// Vectorized CPU kernel subsystem backing the GPT hot paths (forward,
// backward, incremental gen_step). Two implementations of every kernel live
// here side by side:
//
//   *_ref    — the seed's naive triple loops, kept verbatim as the semantic
//              reference for parity tests;
//   the rest — cache-friendly, vectorized rewrites. Every matmul runs
//              through one register-tiled GEMM kernel: a 6x32 block of
//              outputs (6x16 on a target without AVX-512) stays in
//              registers while the reduction index runs innermost, with no
//              -ffast-math, because no floating-point reduction is ever
//              reassociated.
//
// Lane width: the GEMM tile and the exact-math vector bodies are written
// once, as templates over a lane type (ml/lanes.h), and compiled at sixteen
// lanes where the kernels' target has AVX-512 (CHATFUZZ_KERNEL_MARCH's
// default on a host that runs it), eight where it has AVX2+FMA. Every lane
// keeps its element's operations and their order, so both widths give the
// same bits.
//
// Determinism contract: for a given build, every kernel accumulates each
// output element in a fixed order (ascending reduction index) that does not
// depend on the thread count, so results are bit-identical run to run and
// for any set_num_threads() value. Threads only ever split work across
// *disjoint* output ranges (rows for forward/dinp, output channels for
// dweight/dbias, (sequence, head) pairs for attention, active batch rows
// for decode), never across a reduction. A matmul output element is one
// multiply-add per reduction index from its start value (bias, zero or the
// accumulator): fused, with one rounding, when the kernels' target has FMA,
// and a multiply then an add otherwise. The fusing is explicit
// (intrinsics, std::fma), not left to the compiler's FP contraction.
//
// Exact math: the training path's tanhf, coshf and expf (GELU forward and
// backward, the attention and LM-head softmaxes, and decode's attention,
// which runs the training row kernel) are the exact_* functions below,
// ports of glibc's, not calls into the installed libm. Their vector
// versions return the scalar definition's bits in every lane, so the
// training bits depend on neither the libm nor the vector width.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

namespace chatfuzz::ml::kern {

// ---- intra-batch thread splitter -------------------------------------------
// A small persistent worker pool (the campaign engine's pool idiom, scoped
// to kernel calls). It defaults to every hardware thread: in a closed-loop
// campaign the simulation workers sit idle while the model trains, so the
// training kernels take the cores. CHATFUZZ_ML_THREADS overrides the default
// ("0" = all hardware threads; larger values are clamped to the hardware
// thread count). The pool runs one dispatch at a time: a kernel called from
// a second thread while it is busy, or from inside a pool body, runs its
// ranges inline on the caller. The ranges are the same, so the bits are too.

/// Current kernel thread count (>= 1).
int num_threads();

/// Set the kernel thread count (clamped to >= 1). Thread-safe with respect
/// to concurrent kernel calls is NOT guaranteed; configure at startup or
/// between training phases.
void set_num_threads(int n);

/// Thread count requested by CHATFUZZ_ML_THREADS: unset, "0" or malformed
/// mean all hardware threads, and no value exceeds that count.
int env_threads();

/// Split [0, total) into one contiguous range per thread and run
/// body(lo, hi) on each; the partition depends only on `total` and the
/// thread count. `work_per_item` (roughly flops per item) decides whether
/// the split pays for waking the pool; small calls run inline.
void parallel_ranges(int total, std::size_t work_per_item,
                     const std::function<void(int, int)>& body);

// ---- exact math (kernels_exact.cpp) -----------------------------------------
// Ports of glibc 2.36's expm1f, tanhf and coshf (fdlibm) and expf
// (optimized-routines, with its x86-64 FMA build's fused multiply-adds):
// every input, NaN aside, gives that libm's bits. They are the one
// definition of these functions on the training path, for the *_ref oracles
// and the optimized kernels alike.
float exact_expm1f(float x);
float exact_tanhf(float x);
float exact_coshf(float x);
float exact_expf(float x);

/// out[i] = exact_*(x[i]) for i < n, eight or sixteen lanes at a time where
/// the build targets AVX2+FMA or AVX-512; any NaN input gives a NaN. `out`
/// may alias `x`.
void exact_tanhf_n(float* out, const float* x, std::size_t n);
void exact_coshf_n(float* out, const float* x, std::size_t n);
void exact_expf_n(float* out, const float* x, std::size_t n);

// ---- scalar GELU (shared by both implementations) ---------------------------
inline float gelu_scalar(float x) {
  constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
  const float cube = 0.044715f * x * x * x;
  return 0.5f * x * (1.f + exact_tanhf(kS * (x + cube)));
}

// ---- reference kernels (seed-naive; parity baseline) ------------------------
// Live in kernels_ref.cpp, which is compiled at the project's base
// optimization level, as the seed built them.
// out[n, o] = bias[o] + sum_i inp[n, i] * w[o, i]   (w is [Cout, Cin] rows)
void matmul_forward_ref(float* out, const float* inp, const float* w,
                        const float* bias, int N, int Cin, int Cout);
void matmul_backward_ref(float* dinp, float* dw, float* dbias,
                         const float* dout, const float* inp, const float* w,
                         int N, int Cin, int Cout);
void gelu_forward_ref(float* out, const float* inp, int N);
void gelu_backward_ref(float* dinp, const float* inp, const float* dout,
                       int N);
void attention_forward_ref(float* out, float* preatt, float* att,
                           const float* qkv, int B, int T, int C, int NH);
void attention_backward_ref(float* dqkv, float* dpreatt, float* datt,
                            const float* dout, const float* qkv,
                            const float* att, int B, int T, int C, int NH);
void layernorm_forward_ref(float* out, float* mean, float* rstd,
                           const float* inp, const float* w, const float* b,
                           int N, int C);
void layernorm_backward_ref(float* dinp, float* dw, float* db,
                            const float* dout, const float* inp,
                            const float* mean, const float* rstd,
                            const float* w, int N, int C);
void softmax_forward_ref(float* probs, const float* logits, int N, int V);

// ---- optimized kernels -------------------------------------------------------
/// Whether the matmul kernels' multiply-add is fused (one rounding, on a
/// target with a fast fmaf) or a multiply then an add (two roundings).
/// Every matmul output is a chain of these, one per reduction index in
/// ascending order, from its start value (bias, zero or the accumulator).
bool madd_is_fused();

/// Tiled matmul. Same signature and math as the reference; internally
/// transposes `w` into a per-thread scratch so the tile reads weight rows
/// with unit stride. Split by row.
void matmul_forward(float* out, const float* inp, const float* w,
                    const float* bias, int N, int Cin, int Cout);

/// dinp += dout @ w (split by row), dw += dout^T @ inp and dbias +=
/// colsum(dout) (split by output channel). Accumulation order per element
/// matches the reference exactly.
void matmul_backward(float* dinp, float* dw, float* dbias, const float* dout,
                     const float* inp, const float* w, int N, int Cin,
                     int Cout);

/// Fused bias + GELU epilogue: pre = inp @ w^T + bias, post =
/// gelu_epilogue(pre), computed row by row so `pre` is still hot in cache
/// when the activation runs. Both buffers are written (backward needs the
/// pre-activation).
void matmul_bias_gelu_forward(float* pre, float* post, const float* inp,
                              const float* w, const float* bias, int N,
                              int Cin, int Cout);

/// post[i] = GELU(pre[i]) for i < n, as matmul_bias_gelu_forward computes
/// it: where madd_is_fused(), the tanh argument is kS * fma(0.044715 x * x,
/// x, x) and the result (t + 1) * (0.5 x), with t = exact_tanhf(argument);
/// otherwise gelu_scalar's bits. Runs on the calling thread.
void gelu_epilogue(float* post, const float* pre, std::size_t n);

/// dinp += gelu'(inp) * dout, split by element, with gelu_backward_ref's
/// bits: tanh and cosh are recomputed from the unfused argument (the fused
/// forward's argument rounds differently, so reusing it would change bits).
void gelu_backward(float* dinp, const float* inp, const float* dout, int N);

// ---- transformer layer kernels (kernels_exact.cpp) -------------------------
// The training path's attention, layernorm and softmax. Each reproduces its
// *_ref loop bit for bit, so kernels_exact.cpp is compiled with FMA
// contraction off; the loops are only reshaped where that keeps every
// output element's operations and their order. The LM-head softmax's
// exponentials run at the kernels' lane width and are then summed in
// ascending order. The attention kernels have one body over 8-lane groups:
// with AVX2 (or AVX-512) they are ymm registers, in a generic build float[8]
// loops with the same operations in the same order.

/// Causal self-attention over B ragged sequences packed back to back:
/// sequence b is rows [offs[b], offs[b+1]) of qkv ([N, 3C]) and out ([N, C]),
/// N = offs[B], so no padded row is ever touched. att holds one row-major
/// L x L block per (sequence, head), L the sequence's length, sequence b's
/// NH blocks starting at NH * sum_{b' < b} L_b'^2 (attention_att_size).
/// Only the entries on and below the diagonal are written. Each
/// (sequence, head) runs on one thread, longest sequences first, handed to
/// whichever thread is free: K is transposed once, every row goes through
/// attention_row's softmax, and A.V keeps four query rows' outputs in
/// registers. No [T, T] scratch besides att itself.
void attention_forward(float* out, float* att, const float* qkv,
                       const int* offs, int B, int C, int NH);
/// Accumulates into dqkv (callers zero it); att is attention_forward's.
/// Per (sequence, head) in phases, each keeping every element's operations
/// and their order: dA and the softmax Jacobian row by row (8-lane
/// accumulators held across the whole key loop) into a per-thread G = dS /
/// sqrt(hs), then dV = A^T dO, dK = G^T Q and dQ = G K with several rows
/// held in registers.
void attention_backward(float* dqkv, const float* dout, const float* qkv,
                        const float* att, const int* offs, int B, int C,
                        int NH);
/// Floats of attention_forward's att for the sequences of `offs`.
std::size_t attention_att_size(const int* offs, int B, int NH);

/// One query row of causal attention, the row kernel attention_forward runs
/// at every row and gen_step at every decode position: a[t2] =
/// softmax(q . k_t2 / sqrt(hs)) over t2 < n, then out = sum_t2 a[t2] v_t2 in
/// ascending t2. kt holds the keys transposed (element i of key t2 at
/// kt[i * ldk + t2]) and is read up to n rounded up to 8, as a is written;
/// value rows are v + t2 * ldv. Runs on the calling thread.
void attention_row(float* out, float* a, const float* q, const float* kt,
                   std::size_t ldk, const float* v, std::size_t ldv, int n,
                   int hs);

/// Row n of out (and mean[n], rstd[n]) normalizes input row rows[n], or
/// row n when rows is null. Split by row.
void layernorm_forward(float* out, float* mean, float* rstd, const float* inp,
                       const float* w, const float* b, const int* rows, int N,
                       int C);
/// Backward of layernorm_forward with the same `rows` (which must be
/// distinct): dinp rows split by row, dw/db split by channel.
void layernorm_backward(float* dinp, float* dw, float* db, const float* dout,
                        const float* inp, const float* mean, const float* rstd,
                        const float* w, const int* rows, int N, int C);

/// Row-wise softmax over V logits, split by row. A row's max is taken eight
/// lanes at a time (the max of a set in any order, up to a zero's sign,
/// which exp(l - max) does not see; NaN logits are skipped), its exponents
/// summed in ascending order.
void softmax_forward(float* probs, const float* logits, int N, int V);

// ---- packed weights for incremental decode -----------------------------------
/// A transposed ([Cin, Cout], unit stride over Cout) copy of a [Cout, Cin]
/// weight matrix. gen_step packs every weight once per generation so each
/// per-token matvec streams the packed buffer linearly front to back —
/// exactly the access pattern hardware prefetchers are built for.
struct PackedMat {
  int cout = 0, cin = 0;
  std::vector<float> t;  // [cin, cout]

  bool empty() const { return t.empty(); }
};

/// Fill `dst` with the transpose of w ([Cout, Cin] row-major).
/// The packed matvecs below never wake the pool themselves: gen_step
/// already splits its batch rows across it, once per token, and each part
/// runs them on its own rows.
void pack_transpose(PackedMat& dst, const float* w, int Cout, int Cin);

/// out[n, o] = bias[o] + sum_i inp[n, i] * W[o, i], with W pre-packed.
void matmul_forward_packed(float* out, const float* inp, const PackedMat& wt,
                           const float* bias, int N);

/// Fused packed matmul + bias + GELU (see matmul_bias_gelu_forward).
/// Inference-only: the activation uses a vectorizable polynomial tanh
/// (|rel err| < 3e-6) instead of exact_tanhf — training paths keep the
/// exact GELU.
void matmul_bias_gelu_forward_packed(float* pre, float* post, const float* inp,
                                     const PackedMat& wt, const float* bias,
                                     int N);

}  // namespace chatfuzz::ml::kern
