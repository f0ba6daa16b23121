#include "ml/gpt.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "ml/kernels.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace chatfuzz::ml {

// ---------------------------------------------------------------------------
// Parameter layout: one flat buffer, offsets computed once per config.
// ---------------------------------------------------------------------------
struct Gpt::Layout {
  // global tensors
  std::size_t wte, wpe, lnfw, lnfb, valw, valb;
  // per-layer tensor offsets relative to layer base
  std::size_t ln1w, ln1b, qkvw, qkvb, attprojw, attprojb;
  std::size_t ln2w, ln2b, fcw, fcb, fcprojw, fcprojb;
  std::size_t layer_base, per_layer, total;

  static Layout make(const GptConfig& c) {
    const std::size_t C = c.n_embd, V = c.vocab, T = c.ctx;
    Layout o{};
    std::size_t at = 0;
    o.wte = at; at += V * C;
    o.wpe = at; at += T * C;
    o.layer_base = at;
    std::size_t l = 0;
    o.ln1w = l; l += C;
    o.ln1b = l; l += C;
    o.qkvw = l; l += 3 * C * C;
    o.qkvb = l; l += 3 * C;
    o.attprojw = l; l += C * C;
    o.attprojb = l; l += C;
    o.ln2w = l; l += C;
    o.ln2b = l; l += C;
    o.fcw = l; l += 4 * C * C;
    o.fcb = l; l += 4 * C;
    o.fcprojw = l; l += 4 * C * C;
    o.fcprojb = l; l += C;
    o.per_layer = l;
    at += o.per_layer * c.n_layer;
    o.lnfw = at; at += C;
    o.lnfb = at; at += C;
    o.valw = at; at += C;
    o.valb = at; at += 1;
    o.total = at;
    return o;
  }
};

namespace {

// ---- matmul/GELU dispatch --------------------------------------------------
// The heavy kernels live in ml/kernels.{h,cpp}; `ref` selects the seed's
// naive loops (benchmark baseline, parity tests) over the vectorized path.

void mm_fwd(bool ref, float* out, const float* inp, const float* w,
            const float* bias, int N, int Cin, int Cout) {
  if (ref) {
    kern::matmul_forward_ref(out, inp, w, bias, N, Cin, Cout);
  } else {
    kern::matmul_forward(out, inp, w, bias, N, Cin, Cout);
  }
}

void mm_bwd(bool ref, float* dinp, float* dw, float* dbias, const float* dout,
            const float* inp, const float* w, int N, int Cin, int Cout) {
  if (ref) {
    kern::matmul_backward_ref(dinp, dw, dbias, dout, inp, w, N, Cin, Cout);
  } else {
    kern::matmul_backward(dinp, dw, dbias, dout, inp, w, N, Cin, Cout);
  }
}

// ---- embedding and residual loops (llm.c style) ----------------------------
// Attention, layernorm and softmax live in ml/kernels (kernels_exact.cpp).
// Row n of the packed activations holds token src[n] = b*T+t, whose
// position is t.

void encoder_forward(float* out, const int* tokens, const int* src,
                     const float* wte, const float* wpe, int N, int T, int C) {
  const std::size_t work = 2 * static_cast<std::size_t>(C);
  kern::parallel_ranges(N, work, [&](int n0, int n1) {
    for (int n = n0; n < n1; ++n) {
      float* o = out + static_cast<std::size_t>(n) * C;
      const float* we = wte + static_cast<std::size_t>(tokens[src[n]]) * C;
      const float* pe = wpe + static_cast<std::size_t>(src[n] % T) * C;
      for (int c = 0; c < C; ++c) o[c] = we[c] + pe[c];
    }
  });
}

void encoder_backward(float* dwte, float* dwpe, const float* dout,
                      const int* tokens, const int* src, int N, int T, int C) {
  for (int n = 0; n < N; ++n) {
    const float* d = dout + static_cast<std::size_t>(n) * C;
    float* dwt = dwte + static_cast<std::size_t>(tokens[src[n]]) * C;
    float* dwp = dwpe + static_cast<std::size_t>(src[n] % T) * C;
    for (int c = 0; c < C; ++c) {
      dwt[c] += d[c];
      dwp[c] += d[c];
    }
  }
}

/// Runs body(lo, hi) over [0, n) elements in pool-sized chunks.
template <typename Body>
void elementwise(std::size_t n, const Body& body) {
  constexpr std::size_t kChunk = std::size_t{1} << 12;
  kern::parallel_ranges(static_cast<int>((n + kChunk - 1) / kChunk), kChunk,
                        [&](int c0, int c1) {
    body(c0 * kChunk, std::min(n, c1 * kChunk));
  });
}

/// Zeroes p[0, n) across the pool.
void zero_floats(float* p, std::size_t n) {
  elementwise(n, [&](std::size_t lo, std::size_t hi) {
    std::memset(p + lo, 0, (hi - lo) * sizeof(float));
  });
}

/// Replaces `arena` with n floats that nothing has written yet. The old
/// contents are dropped, not copied into the new block.
template <typename Arena>
void regrow(Arena& arena, std::size_t n) {
  arena = Arena();
  arena.resize(n);
}

void residual_forward(float* out, const float* a, const float* b,
                      std::size_t n) {
  elementwise(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = a[i] + b[i];
  });
}

/// Backward of out = a + b: da += dout and db += dout.
void residual_backward(float* da, float* db, const float* dout,
                       std::size_t n) {
  elementwise(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      da[i] += dout[i];
      db[i] += dout[i];
    }
  });
}

// ---- precondition checks ------------------------------------------------------
// The public entry points index activations, KV caches and embedding rows
// with their arguments, so a broken precondition must stop the process with
// a message, in Release builds too, rather than read or write out of bounds.

[[gnu::format(printf, 2, 3)]] void require(bool ok, const char* fmt, ...) {
  if (ok) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace

// ---------------------------------------------------------------------------
// Activation arena layout: N packed real rows, R head rows, and A
// attention-probability floats per layer.
// ---------------------------------------------------------------------------
namespace {
struct ActLayout {
  // The final layernorm and the heads (lnf .. values) hold only the head
  // rows of the last forward, packed in head-row order. Backward's gradient
  // arena covers everything before `logits`: it never touches the head
  // outputs or `att`, which come last.
  // per-layer strides
  std::size_t ln1, ln1_mean, ln1_rstd, qkv, atty, attproj, res2, ln2, ln2_mean,
      ln2_rstd, fch, fch_gelu, fcproj, res3, per_layer;
  // globals
  std::size_t encoded, lnf, lnf_mean, lnf_rstd, logits, probs, values, att,
      total;
  std::size_t layer_base;

  static ActLayout make(const GptConfig& c, std::size_t N, std::size_t R,
                        std::size_t A) {
    const std::size_t C = c.n_embd, V = c.vocab;
    ActLayout o{};
    std::size_t at = 0;
    o.encoded = at; at += N * C;
    o.layer_base = at;
    std::size_t l = 0;
    o.ln1 = l; l += N * C;
    o.ln1_mean = l; l += N;
    o.ln1_rstd = l; l += N;
    o.qkv = l; l += N * 3 * C;
    o.atty = l; l += N * C;
    o.attproj = l; l += N * C;
    o.res2 = l; l += N * C;
    o.ln2 = l; l += N * C;
    o.ln2_mean = l; l += N;
    o.ln2_rstd = l; l += N;
    o.fch = l; l += N * 4 * C;
    o.fch_gelu = l; l += N * 4 * C;
    o.fcproj = l; l += N * C;
    o.res3 = l; l += N * C;
    o.per_layer = l;
    at += o.per_layer * c.n_layer;
    o.lnf = at; at += R * C;
    o.lnf_mean = at; at += R;
    o.lnf_rstd = at; at += R;
    o.logits = at; at += R * V;
    o.probs = at; at += R * V;
    o.values = at; at += R;
    o.att = at; at += A * c.n_layer;
    o.total = at;
    return o;
  }

  /// B sequences of length T, every row a head row: no ragged batch of
  /// that shape needs more.
  static ActLayout padded(const GptConfig& c, int B, int T) {
    const std::size_t BT = static_cast<std::size_t>(B) * T;
    return make(c, BT, BT, BT * T * c.n_head);
  }
};
}  // namespace

Gpt::Gpt(GptConfig cfg, std::uint64_t seed) : cfg_(cfg) {
  // Hard config validation (kept in release builds): every downstream
  // buffer — KV caches, generation scratch, the attention-score buffer —
  // is sized from these fields, so a bad config must fail here, loudly,
  // not as an out-of-bounds write deep inside gen_step.
  require(cfg_.ctx > 0 && cfg_.vocab > 0 && cfg_.n_layer >= 0 &&
              cfg_.n_head > 0 && cfg_.n_embd > 0 &&
              cfg_.n_embd % cfg_.n_head == 0,
          "Gpt: invalid config (vocab=%d ctx=%d n_layer=%d n_head=%d "
          "n_embd=%d); ctx/vocab/n_embd must be positive and n_embd "
          "divisible by n_head",
          cfg_.vocab, cfg_.ctx, cfg_.n_layer, cfg_.n_head, cfg_.n_embd);
  const Layout lay = Layout::make(cfg_);
  params_.assign(lay.total, 0.f);
  grads_.assign(lay.total, 0.f);

  Rng rng(seed);
  auto gauss = [&rng] {
    // Box-Muller
    const double u1 = rng.uniform() + 1e-12;
    const double u2 = rng.uniform();
    return static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                              std::cos(6.283185307179586 * u2));
  };
  auto fill = [&](std::size_t off, std::size_t n, float stddev) {
    for (std::size_t i = 0; i < n; ++i) params_[off + i] = gauss() * stddev;
  };
  const std::size_t C = cfg_.n_embd;
  const float res_scale =
      0.02f / std::sqrt(2.f * static_cast<float>(cfg_.n_layer));
  fill(lay.wte, static_cast<std::size_t>(cfg_.vocab) * C, 0.02f);
  fill(lay.wpe, static_cast<std::size_t>(cfg_.ctx) * C, 0.01f);
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t base = lay.layer_base + l * lay.per_layer;
    for (std::size_t i = 0; i < C; ++i) params_[base + lay.ln1w + i] = 1.f;
    for (std::size_t i = 0; i < C; ++i) params_[base + lay.ln2w + i] = 1.f;
    fill(base + lay.qkvw, 3 * C * C, 0.02f);
    fill(base + lay.attprojw, C * C, res_scale);
    fill(base + lay.fcw, 4 * C * C, 0.02f);
    fill(base + lay.fcprojw, 4 * C * C, res_scale);
  }
  for (std::size_t i = 0; i < C; ++i) params_[lay.lnfw + i] = 1.f;
  fill(lay.valw, C, 0.02f);
}

void Gpt::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.f); }

void Gpt::copy_params_from(const Gpt& other) {
  const GptConfig& o = other.cfg_;
  require(o.vocab == cfg_.vocab && o.ctx == cfg_.ctx &&
              o.n_layer == cfg_.n_layer && o.n_head == cfg_.n_head &&
              o.n_embd == cfg_.n_embd,
          "Gpt::copy_params_from: config mismatch (vocab=%d ctx=%d "
          "n_layer=%d n_head=%d n_embd=%d into vocab=%d ctx=%d n_layer=%d "
          "n_head=%d n_embd=%d)",
          o.vocab, o.ctx, o.n_layer, o.n_head, o.n_embd, cfg_.vocab, cfg_.ctx,
          cfg_.n_layer, cfg_.n_head, cfg_.n_embd);
  params_ = other.params_;
}

const float* Gpt::acts_ptr(ActName which) const {
  const ActLayout a = ActLayout::make(cfg_, src_.size(), head_rows_.size(),
                                      att_size_);
  switch (which) {
    case kActLogits: return acts_.data() + a.logits;
    case kActProbs: return acts_.data() + a.probs;
    case kActValues: return acts_.data() + a.values;
  }
  return nullptr;
}

// The [B, T] overloads are the ragged forward with every length T.
void Gpt::forward(const int* tokens, int B, int T) {
  std::vector<int> all(static_cast<std::size_t>(std::max(B, 0)) *
                       std::max(T, 0));
  std::iota(all.begin(), all.end(), 0);
  forward(tokens, B, T, all);
}

void Gpt::forward(const int* tokens, int B, int T,
                  const std::vector<int>& head_rows) {
  require(B >= 0, "Gpt::forward: B=%d is negative", B);
  forward(tokens, B, T, head_rows, std::vector<int>(B, T));
}

void Gpt::forward(const int* tokens, int B, int T,
                  const std::vector<int>& head_rows,
                  const std::vector<int>& lengths) {
  require(T <= cfg_.ctx, "Gpt::forward: T=%d exceeds ctx=%d", T, cfg_.ctx);
  require(lengths.size() == static_cast<std::size_t>(B),
          "Gpt::forward: %zu lengths for B=%d sequences", lengths.size(), B);
  for (std::size_t r = 0; r < head_rows.size(); ++r) {
    require(head_rows[r] >= 0 && head_rows[r] < B * T &&
                (r == 0 || head_rows[r] > head_rows[r - 1]),
            "Gpt::forward: head rows must be strictly ascending in [0, B*T)");
  }
  B_ = B;
  T_ = T;
  offs_.assign(static_cast<std::size_t>(B) + 1, 0);
  for (int b = 0; b < B; ++b) {
    require(lengths[b] >= 0 && lengths[b] <= T,
            "Gpt::forward: length %d of sequence %d is outside [0, T=%d]",
            lengths[b], b, T);
    offs_[b + 1] = offs_[b] + lengths[b];
  }
  head_rows_ = head_rows;
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const int N = offs_[B];
  src_.resize(N);
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < lengths[b]; ++t) src_[offs_[b] + t] = b * T + t;
  }
  for (int n = 0; n < N; ++n) {
    require(tokens[src_[n]] >= 0 && tokens[src_[n]] < V,
            "Gpt::forward: token %d at %d is outside the vocabulary [0, %d)",
            tokens[src_[n]], src_[n], V);
  }
  const int R = static_cast<int>(head_rows_.size());
  head_packed_.resize(R);
  for (int r = 0; r < R; ++r) {
    const int b = head_rows_[r] / T, t = head_rows_[r] % T;
    require(t < offs_[b + 1] - offs_[b],
            "Gpt::forward: head row %d is padding (sequence %d has length %d)",
            head_rows_[r], b, offs_[b + 1] - offs_[b]);
    head_packed_[r] = offs_[b] + t;
  }
  att_size_ = kern::attention_att_size(offs_.data(), B, NH);
  const Layout p = Layout::make(cfg_);
  const ActLayout a = ActLayout::make(cfg_, N, R, att_size_);
  // Every activation is written before anything reads it, so a new shape
  // reuses the arena as it is. It grows straight to the padded [B, T]
  // batch's size, so the ragged batches that follow, whose real-row counts
  // vary, do not grow it again. A grown arena starts all zero, zeroed on
  // the pool, so its fresh pages fault in on every kernel thread rather
  // than all on the calling one.
  if (acts_.size() < a.total) {
    regrow(acts_, ActLayout::padded(cfg_, B, T).total);
    zero_floats(acts_.data(), acts_.size());
  }
  float* acts = acts_.data();
  const float* prm = params_.data();
  const std::size_t NC = static_cast<std::size_t>(N) * C;

  const bool ref = use_ref_kernels_;

  encoder_forward(acts + a.encoded, tokens, src_.data(), prm + p.wte,
                  prm + p.wpe, N, T, C);
  const float* residual = acts + a.encoded;
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    kern::layernorm_forward(acts + ab + a.ln1, acts + ab + a.ln1_mean,
                            acts + ab + a.ln1_rstd, residual, prm + pb + p.ln1w,
                            prm + pb + p.ln1b, nullptr, N, C);
    mm_fwd(ref, acts + ab + a.qkv, acts + ab + a.ln1, prm + pb + p.qkvw,
           prm + pb + p.qkvb, N, C, 3 * C);
    kern::attention_forward(acts + ab + a.atty, acts + a.att + l * att_size_,
                            acts + ab + a.qkv, offs_.data(), B, C, NH);
    mm_fwd(ref, acts + ab + a.attproj, acts + ab + a.atty,
           prm + pb + p.attprojw, prm + pb + p.attprojb, N, C, C);
    residual_forward(acts + ab + a.res2, residual, acts + ab + a.attproj, NC);
    kern::layernorm_forward(acts + ab + a.ln2, acts + ab + a.ln2_mean,
                            acts + ab + a.ln2_rstd, acts + ab + a.res2,
                            prm + pb + p.ln2w, prm + pb + p.ln2b, nullptr, N,
                            C);
    if (ref) {
      kern::matmul_forward_ref(acts + ab + a.fch, acts + ab + a.ln2,
                               prm + pb + p.fcw, prm + pb + p.fcb, N, C,
                               4 * C);
      kern::gelu_forward_ref(acts + ab + a.fch_gelu, acts + ab + a.fch,
                             N * 4 * C);
    } else {
      kern::matmul_bias_gelu_forward(acts + ab + a.fch, acts + ab + a.fch_gelu,
                                     acts + ab + a.ln2, prm + pb + p.fcw,
                                     prm + pb + p.fcb, N, C, 4 * C);
    }
    mm_fwd(ref, acts + ab + a.fcproj, acts + ab + a.fch_gelu,
           prm + pb + p.fcprojw, prm + pb + p.fcprojb, N, 4 * C, C);
    residual_forward(acts + ab + a.res3, acts + ab + a.res2,
                     acts + ab + a.fcproj, NC);
    residual = acts + ab + a.res3;
  }
  // Final layernorm, tied LM head (logits = lnf @ wte^T), softmax and value
  // head at the head rows only. Every row is computed independently, so a
  // head row's outputs do not depend on which other rows are heads.
  kern::layernorm_forward(acts + a.lnf, acts + a.lnf_mean, acts + a.lnf_rstd,
                          residual, prm + p.lnfw, prm + p.lnfb,
                          head_packed_.data(), R, C);
  mm_fwd(ref, acts + a.logits, acts + a.lnf, prm + p.wte, nullptr, R, C, V);
  kern::softmax_forward(acts + a.probs, acts + a.logits, R, V);
  mm_fwd(ref, acts + a.values, acts + a.lnf, prm + p.valw, prm + p.valb,
         R, C, 1);
}

int Gpt::head_index(int b, int t) const {
  const int n = b * T_ + t;
  const auto it = std::lower_bound(head_rows_.begin(), head_rows_.end(), n);
  return it != head_rows_.end() && *it == n
             ? static_cast<int>(it - head_rows_.begin())
             : -1;
}

float Gpt::logprob(int b, int t, int tok) const {
  const int r = b >= 0 && b < B_ && t >= 0 && t < T_ ? head_index(b, t) : -1;
  require(r >= 0,
          "Gpt::logprob: (b=%d, t=%d) is not a head row of the last forward",
          b, t);
  require(tok >= 0 && tok < cfg_.vocab,
          "Gpt::logprob: token %d is outside the vocabulary [0, %d)", tok,
          cfg_.vocab);
  const float pr =
      acts_ptr(kActProbs)[static_cast<std::size_t>(r) * cfg_.vocab + tok];
  return std::log(pr + 1e-10f);
}

void Gpt::backward_from(const int* tokens, const float* dlogits,
                        const float* dvalues, int B, int T) {
  require(B == B_ && T == T_,
          "Gpt::backward_from: (B=%d, T=%d) is not the last forward's (%d, %d)",
          B, T, B_, T_);
  const Layout p = Layout::make(cfg_);
  const int N = offs_[B];
  const int R = static_cast<int>(head_rows_.size());
  const ActLayout a = ActLayout::make(cfg_, N, R, att_size_);
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const std::size_t NC = static_cast<std::size_t>(N) * C;
  const float* acts = acts_.data();
  const float* prm = params_.data();
  float* grd = grads_.data();
  // Sized here rather than with acts_: a model that only runs forward (the
  // frozen PPO reference) never holds a gradient arena. Backward accumulates
  // into every slot before the head outputs (logits, probs, values) and the
  // attention probabilities, which it never touches, so the arena ends
  // there and is zeroed across the pool.
  if (dacts_.size() < a.logits) {
    regrow(dacts_, ActLayout::padded(cfg_, B, T).logits);
  }
  float* dacts = dacts_.data();
  zero_floats(dacts, a.logits);

  // value head backward: dlnf += dvalues * valw; dvalw += sum dvalues*lnf
  if (dvalues != nullptr) {
    for (int r = 0; r < R; ++r) {
      const float g = dvalues[r];
      if (g == 0.f) continue;
      grd[p.valb] += g;
      const float* lnfx = acts + a.lnf + static_cast<std::size_t>(r) * C;
      float* dlnfx = dacts + a.lnf + static_cast<std::size_t>(r) * C;
      for (int c = 0; c < C; ++c) {
        grd[p.valw + c] += g * lnfx[c];
        dlnfx[c] += g * prm[p.valw + c];
      }
    }
  }
  const bool ref = use_ref_kernels_;
  // LM head backward (tied weights): dlnf += dlogits @ wte; dwte += ...
  mm_bwd(ref, dacts + a.lnf, grd + p.wte, nullptr, dlogits, acts + a.lnf,
         prm + p.wte, R, C, V);

  // final layernorm
  const std::size_t last_ab = a.layer_base + (cfg_.n_layer - 1) * a.per_layer;
  const float* residual = cfg_.n_layer > 0 ? acts + last_ab + a.res3
                                           : acts + a.encoded;
  float* dresidual = cfg_.n_layer > 0 ? dacts + last_ab + a.res3
                                      : dacts + a.encoded;
  kern::layernorm_backward(dresidual, grd + p.lnfw, grd + p.lnfb,
                           dacts + a.lnf, residual, acts + a.lnf_mean,
                           acts + a.lnf_rstd, prm + p.lnfw, head_packed_.data(),
                           R, C);

  for (int l = cfg_.n_layer - 1; l >= 0; --l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    const float* res_in =
        l == 0 ? acts + a.encoded : acts + a.layer_base + (l - 1) * a.per_layer + a.res3;
    float* dres_in =
        l == 0 ? dacts + a.encoded
               : dacts + a.layer_base + (l - 1) * a.per_layer + a.res3;
    // res3 = res2 + fcproj
    float* dres2 = dacts + ab + a.res2;
    residual_backward(dres2, dacts + ab + a.fcproj, dacts + ab + a.res3, NC);
    mm_bwd(ref, dacts + ab + a.fch_gelu, grd + pb + p.fcprojw,
           grd + pb + p.fcprojb, dacts + ab + a.fcproj, acts + ab + a.fch_gelu,
           prm + pb + p.fcprojw, N, 4 * C, C);
    kern::gelu_backward(dacts + ab + a.fch, acts + ab + a.fch,
                        dacts + ab + a.fch_gelu, N * 4 * C);
    mm_bwd(ref, dacts + ab + a.ln2, grd + pb + p.fcw, grd + pb + p.fcb,
           dacts + ab + a.fch, acts + ab + a.ln2, prm + pb + p.fcw,
           N, C, 4 * C);
    kern::layernorm_backward(dres2, grd + pb + p.ln2w, grd + pb + p.ln2b,
                             dacts + ab + a.ln2, acts + ab + a.res2,
                             acts + ab + a.ln2_mean, acts + ab + a.ln2_rstd,
                             prm + pb + p.ln2w, nullptr, N, C);
    // res2 = residual_in + attproj
    residual_backward(dres_in, dacts + ab + a.attproj, dres2, NC);
    mm_bwd(ref, dacts + ab + a.atty, grd + pb + p.attprojw,
           grd + pb + p.attprojb, dacts + ab + a.attproj, acts + ab + a.atty,
           prm + pb + p.attprojw, N, C, C);
    kern::attention_backward(dacts + ab + a.qkv, dacts + ab + a.atty,
                             acts + ab + a.qkv, acts + a.att + l * att_size_,
                             offs_.data(), B, C, NH);
    mm_bwd(ref, dacts + ab + a.ln1, grd + pb + p.qkvw, grd + pb + p.qkvb,
           dacts + ab + a.qkv, acts + ab + a.ln1, prm + pb + p.qkvw,
           N, C, 3 * C);
    kern::layernorm_backward(dres_in, grd + pb + p.ln1w, grd + pb + p.ln1b,
                             dacts + ab + a.ln1, res_in, acts + ab + a.ln1_mean,
                             acts + ab + a.ln1_rstd, prm + pb + p.ln1w, nullptr,
                             N, C);
  }
  encoder_backward(grd + p.wte, grd + p.wpe, dacts + a.encoded, tokens,
                   src_.data(), N, T, C);
}

float Gpt::backward_lm(const int* tokens, const int* targets, int B, int T) {
  require(B == B_ && T == T_,
          "Gpt::backward_lm: (B=%d, T=%d) is not the last forward's (%d, %d)",
          B, T, B_, T_);
  const int V = cfg_.vocab;
  const int BT = B * T;
  // count valid targets
  int count = 0;
  for (int n = 0; n < BT; ++n) count += targets[n] >= 0 ? 1 : 0;
  if (count == 0) return 0.f;

  const std::size_t R = head_rows_.size();
  std::vector<float> dlogits(R * V, 0.f);
  const float* probs = acts_ptr(kActProbs);
  float loss = 0.f;
  const float inv = 1.f / static_cast<float>(count);
  int seen = 0;
  for (std::size_t r = 0; r < R; ++r) {
    const int tgt = targets[head_rows_[r]];
    if (tgt < 0) continue;
    ++seen;
    const float* pr = probs + r * V;
    loss += -std::log(pr[tgt] + 1e-10f);
    float* dl = dlogits.data() + r * V;
    for (int v = 0; v < V; ++v) dl[v] = pr[v] * inv;
    dl[tgt] -= inv;
  }
  require(seen == count,
          "Gpt::backward_lm: %d target rows are not head rows of the last "
          "forward",
          count - seen);
  backward_from(tokens, dlogits.data(), nullptr, B, T);
  return loss * inv;
}

// ---------------------------------------------------------------------------
// Incremental generation with KV caches.
// ---------------------------------------------------------------------------
Gpt::GenState Gpt::gen_begin(int B) const {
  require(B > 0, "Gpt::gen_begin: B=%d must be positive", B);
  GenState s;
  s.B = B;
  s.t = 0;
  s.ctx_pad = (cfg_.ctx + 7) / 8 * 8;
  const std::size_t C = cfg_.n_embd;
  const std::size_t LB = static_cast<std::size_t>(cfg_.n_layer) * B;
  // Positions past s.t are read (as whole lane groups) but never used; they
  // start as zeros.
  s.kt.assign(LB * C * s.ctx_pad, 0.f);
  s.vcache.assign(LB * cfg_.ctx * C, 0.f);
  // scratch: x, ln, qkv, atty, proj, fch, fgel per batch row
  s.scratch.assign(static_cast<std::size_t>(B) * (C * 5 + 3 * C + 8 * C), 0.f);
  // Attention-probability and layernorm scratch, one slice per row so the
  // rows can decode in parallel, sized from the config (the seed used a
  // fixed float[512] stack buffer here, which a large-ctx config would
  // silently overrun).
  s.att.assign(static_cast<std::size_t>(B) * s.ctx_pad, 0.f);
  s.norm.assign(static_cast<std::size_t>(2) * B, 0.f);
  s.logits.assign(static_cast<std::size_t>(B) * cfg_.vocab, 0.f);
  s.live.assign(B, 1);
  if (!use_ref_kernels_) {
    // Packed (transposed) weight views: one pack per generation, then every
    // per-token matvec streams weights linearly (see kern::PackedMat). Pack
    // cost is one pass over the parameters — amortized across ctx tokens.
    const Layout p = Layout::make(cfg_);
    const float* prm = params_.data();
    const int Ci = cfg_.n_embd;
    s.wpack.resize(static_cast<std::size_t>(cfg_.n_layer) * 4 + 1);
    for (int l = 0; l < cfg_.n_layer; ++l) {
      const std::size_t pb = p.layer_base + l * p.per_layer;
      kern::pack_transpose(s.wpack[l * 4 + 0], prm + pb + p.qkvw, 3 * Ci, Ci);
      kern::pack_transpose(s.wpack[l * 4 + 1], prm + pb + p.attprojw, Ci, Ci);
      kern::pack_transpose(s.wpack[l * 4 + 2], prm + pb + p.fcw, 4 * Ci, Ci);
      kern::pack_transpose(s.wpack[l * 4 + 3], prm + pb + p.fcprojw, Ci,
                           4 * Ci);
    }
    kern::pack_transpose(s.wpack.back(), prm + p.wte, cfg_.vocab, Ci);
  }
  return s;
}

void Gpt::gen_step(GenState& s, const int* tokens_t, float* logits_out) const {
  std::vector<int> all(s.B);
  std::iota(all.begin(), all.end(), 0);
  gen_step(s, tokens_t, logits_out, all);
}

void Gpt::gen_step(GenState& s, const int* tokens_t, float* logits_out,
                   const std::vector<int>& rows) const {
  OBS_SPAN("ml.gen_step");
  require(s.t < cfg_.ctx, "Gpt::gen_step: position %d is past ctx=%d", s.t,
          cfg_.ctx);
  std::size_t next = 0;  // first row not yet matched against `rows`
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int b = rows[i];
    require(b >= 0 && b < s.B && (i == 0 || b > rows[i - 1]),
            "Gpt::gen_step: active rows must be strictly ascending in [0, %d)",
            s.B);
    require(s.live[b] != 0,
            "Gpt::gen_step: row %d was left out of an earlier step", b);
    require(tokens_t[b] >= 0 && tokens_t[b] < cfg_.vocab,
            "Gpt::gen_step: token %d at %d is outside the vocabulary [0, %d)",
            tokens_t[b], b, cfg_.vocab);
    for (; next < static_cast<std::size_t>(b); ++next) s.live[next] = 0;
    next = static_cast<std::size_t>(b) + 1;
  }
  for (; next < static_cast<std::size_t>(s.B); ++next) s.live[next] = 0;
  // One pool dispatch per token, split by active row: rows never meet in a
  // decode step, so each part runs every layer for its own rows and the
  // bits do not depend on the split or on which other rows are active.
  const std::size_t C = cfg_.n_embd, L = cfg_.n_layer;
  const std::size_t work = 2 * C * (12 * C * L + cfg_.vocab) +
                           4 * C * L * static_cast<std::size_t>(s.t + 1);
  kern::parallel_ranges(static_cast<int>(rows.size()), work,
                        [&](int i0, int i1) {
    gen_rows(s, tokens_t, logits_out, rows.data(), i0, i1);
  });
  ++s.t;
}

void Gpt::gen_rows(GenState& s, const int* tokens_t, float* logits_out,
                   const int* rows, int i0, int i1) const {
  if (i1 <= i0) return;
  const Layout p = Layout::make(cfg_);
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const int hs = C / NH;
  const int B = s.B, nb = i1 - i0;
  const int pos = s.t;
  const std::size_t ldk = s.ctx_pad;
  const float* prm = params_.data();
  // Packed weights are built by gen_begin; toggling the kernel path between
  // gen_begin and gen_step is not supported.
  const bool ref = s.wpack.empty();

  // This part's slots [i0, i1) of each [B, ...] scratch buffer; slot i
  // serves active row rows[i].
  float* base = s.scratch.data();
  const std::size_t BC = static_cast<std::size_t>(B) * C, r0 = i0;
  float* x = base + r0 * C;                   // [B, C]
  float* ln = base + BC + r0 * C;             // [B, C]
  float* qkv = base + 2 * BC + r0 * 3 * C;    // [B, 3C]
  float* atty = base + 5 * BC + r0 * C;       // [B, C]
  float* proj = base + 6 * BC + r0 * C;       // [B, C]
  float* fch = base + 7 * BC + r0 * 4 * C;    // [B, 4C]
  float* fgel = base + 11 * BC + r0 * 4 * C;  // [B, 4C]
  float* mean = s.norm.data() + r0;           // [B]
  float* rstd = s.norm.data() + B + r0;       // [B]
  float* logits = s.logits.data() + r0 * V;  // [B, V], scattered at the end

  for (int j = 0; j < nb; ++j) {
    const float* we =
        prm + p.wte + static_cast<std::size_t>(tokens_t[rows[i0 + j]]) * C;
    const float* pe = prm + p.wpe + static_cast<std::size_t>(pos) * C;
    for (int c = 0; c < C; ++c) x[j * C + c] = we[c] + pe[c];
  }

  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    kern::layernorm_forward(ln, mean, rstd, x, prm + pb + p.ln1w,
                            prm + pb + p.ln1b, nullptr, nb, C);
    if (ref) {
      kern::matmul_forward_ref(qkv, ln, prm + pb + p.qkvw, prm + pb + p.qkvb,
                               nb, C, 3 * C);
    } else {
      kern::matmul_forward_packed(qkv, ln, s.wpack[l * 4 + 0],
                                  prm + pb + p.qkvb, nb);
    }
    // Append k (transposed) and v to the cache, then attend over it with
    // the training kernel's row routine.
    for (int j = 0; j < nb; ++j) {
      const int b = rows[i0 + j];
      const std::size_t lb = static_cast<std::size_t>(l) * B + b;
      float* kt = s.kt.data() + lb * C * ldk;
      float* vbase = s.vcache.data() + lb * cfg_.ctx * C;
      const float* qkv_j = qkv + static_cast<std::size_t>(j) * 3 * C;
      for (int c = 0; c < C; ++c) kt[c * ldk + pos] = qkv_j[C + c];
      std::memcpy(vbase + static_cast<std::size_t>(pos) * C, qkv_j + 2 * C,
                  sizeof(float) * C);
      float* att = s.att.data() + static_cast<std::size_t>(b) * ldk;
      for (int h = 0; h < NH; ++h) {
        kern::attention_row(atty + j * C + h * hs, att, qkv_j + h * hs,
                            kt + h * hs * ldk, ldk, vbase + h * hs, C, pos + 1,
                            hs);
      }
    }
    if (ref) {
      kern::matmul_forward_ref(proj, atty, prm + pb + p.attprojw,
                               prm + pb + p.attprojb, nb, C, C);
    } else {
      kern::matmul_forward_packed(proj, atty, s.wpack[l * 4 + 1],
                                  prm + pb + p.attprojb, nb);
    }
    for (int n = 0; n < nb * C; ++n) x[n] += proj[n];
    kern::layernorm_forward(ln, mean, rstd, x, prm + pb + p.ln2w,
                            prm + pb + p.ln2b, nullptr, nb, C);
    if (ref) {
      kern::matmul_forward_ref(fch, ln, prm + pb + p.fcw, prm + pb + p.fcb,
                               nb, C, 4 * C);
      kern::gelu_forward_ref(fgel, fch, nb * 4 * C);
      kern::matmul_forward_ref(proj, fgel, prm + pb + p.fcprojw,
                               prm + pb + p.fcprojb, nb, 4 * C, C);
    } else {
      kern::matmul_bias_gelu_forward_packed(fch, fgel, ln, s.wpack[l * 4 + 2],
                                            prm + pb + p.fcb, nb);
      kern::matmul_forward_packed(proj, fgel, s.wpack[l * 4 + 3],
                                  prm + pb + p.fcprojb, nb);
    }
    for (int n = 0; n < nb * C; ++n) x[n] += proj[n];
  }
  kern::layernorm_forward(ln, mean, rstd, x, prm + p.lnfw, prm + p.lnfb,
                          nullptr, nb, C);
  if (ref) {
    kern::matmul_forward_ref(logits, ln, prm + p.wte, nullptr, nb, C, V);
  } else {
    kern::matmul_forward_packed(logits, ln, s.wpack.back(), nullptr, nb);
  }
  for (int j = 0; j < nb; ++j) {
    std::memcpy(logits_out + static_cast<std::size_t>(rows[i0 + j]) * V,
                logits + static_cast<std::size_t>(j) * V, sizeof(float) * V);
  }
}

// ---------------------------------------------------------------------------
// Persistence.
// ---------------------------------------------------------------------------
namespace {
constexpr std::uint32_t kModelMagic = 0x43465A4D;  // "CFZM"
constexpr std::uint32_t kModelVersion = 1;
}  // namespace

void Gpt::save_state(ser::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(cfg_.vocab));
  w.u32(static_cast<std::uint32_t>(cfg_.ctx));
  w.u32(static_cast<std::uint32_t>(cfg_.n_layer));
  w.u32(static_cast<std::uint32_t>(cfg_.n_head));
  w.u32(static_cast<std::uint32_t>(cfg_.n_embd));
  w.vec_f32(params_);
}

bool Gpt::restore_state(ser::Reader& r) {
  const std::uint32_t vocab = r.u32();
  const std::uint32_t ctx = r.u32();
  const std::uint32_t n_layer = r.u32();
  const std::uint32_t n_head = r.u32();
  const std::uint32_t n_embd = r.u32();
  std::vector<float> params = r.vec_f32();
  if (!r.ok() || static_cast<int>(vocab) != cfg_.vocab ||
      static_cast<int>(ctx) != cfg_.ctx ||
      static_cast<int>(n_layer) != cfg_.n_layer ||
      static_cast<int>(n_head) != cfg_.n_head ||
      static_cast<int>(n_embd) != cfg_.n_embd ||
      params.size() != params_.size()) {
    r.fail();
    return false;
  }
  params_ = std::move(params);
  return true;
}

ser::Status Gpt::save(const std::string& path) const {
  ser::Writer w;
  save_state(w);
  return ser::write_file(path, kModelMagic, kModelVersion, w.buffer());
}

ser::Status Gpt::load(const std::string& path) {
  std::string payload;
  ser::Status s =
      ser::read_file(path, kModelMagic, kModelVersion, "model", &payload);
  if (!s.ok()) return s;
  ser::Reader r(payload);
  if (!restore_state(r)) {
    return ser::Status::error(
        path + ": model config does not match this build (want vocab=" +
        std::to_string(cfg_.vocab) + " ctx=" + std::to_string(cfg_.ctx) +
        " layers=" + std::to_string(cfg_.n_layer) +
        " heads=" + std::to_string(cfg_.n_head) +
        " embd=" + std::to_string(cfg_.n_embd) + ", or payload is truncated)");
  }
  return {};
}

}  // namespace chatfuzz::ml
