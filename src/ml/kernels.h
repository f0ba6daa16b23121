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
// output element in a fixed order (ascending reduction index), so results
// are bit-identical run to run and for any set_num_threads() value. The
// kernels run on the calling thread; the thread split lives in their
// callers, and only ever across *disjoint* outputs, never across a
// reduction. Gpt's training passes hand whole sequences to the pool for the
// forward and for the activation-gradient chain (rows of different
// sequences never meet there), and (tensor, output block) items for the
// weight, bias and layernorm gradients, each element of which is one
// ascending-row sum over the whole batch; decode splits its active batch
// rows. A matmul output element is one multiply-add per reduction index
// from its start value (bias, zero or the accumulator): fused, with one
// rounding, when the kernels' target has FMA, and a multiply then an add
// otherwise. The fusing is explicit (intrinsics, std::fma), not left to the
// compiler's FP contraction.
//
// Exact math: the kernels' tanhf, coshf and expf (GELU forward and
// backward, the attention and LM-head softmaxes, and decode's attention,
// which runs the training row kernel) are the exact_* functions below,
// ports of glibc's, not calls into the installed libm. Their vector
// versions return the scalar definition's bits in every lane, so the
// kernels' bits depend on neither the libm nor the vector width. Outside
// the kernels the training path still calls the installed libm, so these
// values carry its bits: Gpt::logprob and backward_lm's loss (logf); the
// PPO update's ratio (expf) and entropy (logf), which feed its gradients;
// AdamW's bias corrections (powf); the sampler's prepare (expf, and log of
// a double sum), whose log-probabilities become PPO's logp_old; and Gpt's
// weight initialization (log and cos of doubles).
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

namespace chatfuzz::ml::kern {

// ---- intra-batch thread splitter -------------------------------------------
// A small persistent worker pool (the campaign engine's pool idiom, scoped
// to the model's passes). It defaults to every hardware thread: in a
// closed-loop campaign the simulation workers sit idle while the model
// trains, so training takes the cores. CHATFUZZ_ML_THREADS overrides the
// default ("0" = all hardware threads; larger values are clamped to the
// hardware thread count). The pool runs one dispatch at a time: a dispatch
// from a second thread while it is busy, or from inside a pool body, runs
// its parts inline on the caller. The parts are the same, so the bits are
// too.

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

/// Run body(i) for every i in [0, total) in one dispatch, each thread taking
/// the next index whenever it finishes one, so items of uneven size keep
/// every thread busy; pass the biggest first. Items must write disjoint
/// outputs: which thread runs one then changes no bit. `work_per_item` as
/// for parallel_ranges; no more threads than items take part.
void parallel_items(int total, std::size_t work_per_item,
                    const std::function<void(int)>& body);

/// Dispatches the pool has woken its workers for since the process started
/// (a dispatch that runs inline does not count). Lets tests pin how often
/// a pass enters the pool.
std::size_t pool_dispatches();

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
// Every kernel below runs on the calling thread, over the rows (or output
// blocks) it is given; the model's passes split the work across the pool.

/// Whether the matmul kernels' multiply-add is fused (one rounding, on a
/// target with a fast fmaf) or a multiply then an add (two roundings).
/// Every matmul output is a chain of these, one per reduction index in
/// ascending order, from its start value (bias, zero or the accumulator).
bool madd_is_fused();

/// A transposed ([Cin, Cout], unit stride over Cout) copy of a [Cout, Cin]
/// weight matrix, so the GEMM tile reads weight rows with unit stride. The
/// training forward packs every weight once per pass and gen_step once per
/// generation; each matmul then streams the packed buffer linearly.
struct PackedMat {
  int cout = 0, cin = 0;
  std::vector<float> t;  // [cin, cout]

  bool empty() const { return t.empty(); }
};

/// Fill `dst` with the transpose of w ([Cout, Cin] row-major).
void pack_transpose(PackedMat& dst, const float* w, int Cout, int Cin);

/// out[n, o] = bias[o] + sum_i inp[n, i] * W[o, i] for n < N, with W
/// pre-packed (bias may be null: zero).
void matmul_forward_packed(float* out, const float* inp, const PackedMat& wt,
                           const float* bias, int N);

/// Fused bias + GELU epilogue: pre = inp @ W^T + bias, post =
/// gelu_epilogue(pre). Both buffers are written (backward needs the
/// pre-activation).
void matmul_bias_gelu_forward(float* pre, float* post, const float* inp,
                              const PackedMat& wt, const float* bias, int N);

/// matmul_bias_gelu_forward for decode only: the activation uses a
/// vectorizable polynomial tanh (|rel err| < 3e-6) instead of exact_tanhf,
/// so its bits differ; training keeps the exact GELU.
void matmul_bias_gelu_forward_packed(float* pre, float* post, const float* inp,
                                     const PackedMat& wt, const float* bias,
                                     int N);

/// dinp[n, i] += sum_o dout[n, o] * w[o, i] for n < N (w is [Cout, Cin]
/// rows, as the forward's weight): the input gradient, row by row.
void matmul_backward_dx(float* dinp, const float* dout, const float* w, int N,
                        int Cin, int Cout);

/// dw[o, i] += sum_n dout[n, o] * inp[n, i] and, unless dbias is null,
/// dbias[o] += sum_n dout[n, o], for the output channels o in [o0, o1) and
/// every n < N in ascending order: the weight and bias gradients of one
/// output block. Blocks are disjoint, so any split gives the same bits.
void matmul_backward_dw(float* dw, float* dbias, const float* dout,
                        const float* inp, int N, int Cin, int Cout, int o0,
                        int o1);

/// post[i] = GELU(pre[i]) for i < n, as matmul_bias_gelu_forward computes
/// it: where madd_is_fused(), the tanh argument is kS * fma(0.044715 x * x,
/// x, x) and the result (t + 1) * (0.5 x), with t = exact_tanhf(argument);
/// otherwise gelu_scalar's bits.
void gelu_epilogue(float* post, const float* pre, std::size_t n);

/// dinp += gelu'(inp) * dout, with gelu_backward_ref's bits: tanh and cosh
/// are recomputed from the unfused argument (the fused forward's argument
/// rounds differently, so reusing it would change bits).
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

/// Causal self-attention over one sequence of L rows: qkv is [L, 3C] and
/// out [L, C]. att holds one row-major L x L block per head, NH * L * L
/// floats; only the entries on and below the diagonal are written. Per
/// head, K is transposed once, every row goes through attention_row's
/// softmax, and A.V keeps four query rows' outputs in registers. No [T, T]
/// scratch besides att itself.
void attention_forward(float* out, float* att, const float* qkv, int L, int C,
                       int NH);
/// Accumulates into dqkv (callers zero it); att is attention_forward's.
/// Per head in phases, each keeping every element's operations and their
/// order: dA and the softmax Jacobian row by row (8-lane accumulators held
/// across the whole key loop) into a per-thread G = dS / sqrt(hs), then
/// dV = A^T dO, dK = G^T Q and dQ = G K with several rows held in
/// registers.
void attention_backward(float* dqkv, const float* dout, const float* qkv,
                        const float* att, int L, int C, int NH);

/// One query row of causal attention, the row kernel attention_forward runs
/// at every row and gen_step at every decode position: a[t2] =
/// softmax(q . k_t2 / sqrt(hs)) over t2 < n, then out = sum_t2 a[t2] v_t2 in
/// ascending t2. kt holds the keys transposed (element i of key t2 at
/// kt[i * ldk + t2]) and is read up to n rounded up to 8, as a is written;
/// value rows are v + t2 * ldv.
void attention_row(float* out, float* a, const float* q, const float* kt,
                   std::size_t ldk, const float* v, std::size_t ldv, int n,
                   int hs);

/// Row n of out (and mean[n], rstd[n]) normalizes input row rows[n], or
/// row n when rows is null.
void layernorm_forward(float* out, float* mean, float* rstd, const float* inp,
                       const float* w, const float* b, const int* rows, int N,
                       int C);
/// Backward of layernorm_forward with the same `rows` (which must be
/// distinct), in two halves. The input gradient, row by row: dinp row
/// rows[n] (or n) += the gradient through row n of dout.
void layernorm_backward_dx(float* dinp, const float* dout, const float* inp,
                           const float* mean, const float* rstd,
                           const float* w, const int* rows, int N, int C);
/// The weight and bias gradients: dw[c] and db[c] add row n's terms for
/// every n < N in ascending order.
void layernorm_backward_dw(float* dw, float* db, const float* dout,
                           const float* inp, const float* mean,
                           const float* rstd, const int* rows, int N, int C);

/// Row-wise softmax over V logits. A row's max is taken eight lanes at a
/// time (the max of a set in any order, up to a zero's sign, which
/// exp(l - max) does not see; NaN logits are skipped), its exponents summed
/// in ascending order.
void softmax_forward(float* probs, const float* logits, int N, int V);

}  // namespace chatfuzz::ml::kern
