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

void encoder_forward(float* out, const int* tokens, const float* wte,
                     const float* wpe, int B, int T, int C) {
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < T; ++t) {
      float* o = out + (b * T + t) * C;
      const float* we = wte + tokens[b * T + t] * C;
      const float* pe = wpe + t * C;
      for (int c = 0; c < C; ++c) o[c] = we[c] + pe[c];
    }
  }
}

void encoder_backward(float* dwte, float* dwpe, const float* dout,
                      const int* tokens, int B, int T, int C) {
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < T; ++t) {
      const float* d = dout + (b * T + t) * C;
      float* dwt = dwte + tokens[b * T + t] * C;
      float* dwp = dwpe + t * C;
      for (int c = 0; c < C; ++c) {
        dwt[c] += d[c];
        dwp[c] += d[c];
      }
    }
  }
}

void residual_forward(float* out, const float* a, const float* b, int N) {
  for (int n = 0; n < N; ++n) out[n] = a[n] + b[n];
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

/// Every one of tokens[0, n) must be an embedding row.
void require_tokens(const char* who, const int* tokens, int n, int vocab) {
  for (int i = 0; i < n; ++i) {
    require(tokens[i] >= 0 && tokens[i] < vocab,
            "%s: token %d at %d is outside the vocabulary [0, %d)", who,
            tokens[i], i, vocab);
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Activation arena layout (depends on B, T).
// ---------------------------------------------------------------------------
namespace {
struct ActLayout {
  // The final layernorm and the heads (lnf .. values) hold only the head
  // rows of the last forward, packed in head-row order; sized for all B*T.
  // per-layer strides
  std::size_t ln1, ln1_mean, ln1_rstd, qkv, atty, preatt, att, attproj,
      res2, ln2, ln2_mean, ln2_rstd, fch, fch_gelu, fcproj, res3, per_layer;
  // globals
  std::size_t encoded, lnf, lnf_mean, lnf_rstd, logits, probs, values, total;
  std::size_t layer_base;

  static ActLayout make(const GptConfig& c, int B, int T) {
    const std::size_t BT = static_cast<std::size_t>(B) * T;
    const std::size_t C = c.n_embd, V = c.vocab, NH = c.n_head;
    ActLayout o{};
    std::size_t at = 0;
    o.encoded = at; at += BT * C;
    o.layer_base = at;
    std::size_t l = 0;
    o.ln1 = l; l += BT * C;
    o.ln1_mean = l; l += BT;
    o.ln1_rstd = l; l += BT;
    o.qkv = l; l += BT * 3 * C;
    o.atty = l; l += BT * C;
    o.preatt = l; l += static_cast<std::size_t>(B) * NH * T * T;
    o.att = l; l += static_cast<std::size_t>(B) * NH * T * T;
    o.attproj = l; l += BT * C;
    o.res2 = l; l += BT * C;
    o.ln2 = l; l += BT * C;
    o.ln2_mean = l; l += BT;
    o.ln2_rstd = l; l += BT;
    o.fch = l; l += BT * 4 * C;
    o.fch_gelu = l; l += BT * 4 * C;
    o.fcproj = l; l += BT * C;
    o.res3 = l; l += BT * C;
    o.per_layer = l;
    at += o.per_layer * c.n_layer;
    o.lnf = at; at += BT * C;
    o.lnf_mean = at; at += BT;
    o.lnf_rstd = at; at += BT;
    o.logits = at; at += BT * V;
    o.probs = at; at += BT * V;
    o.values = at; at += BT;
    o.total = at;
    return o;
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

void Gpt::ensure_acts(int B, int T) {
  B_ = B;
  T_ = T;
  // forward() writes every activation before anything reads it, so a new
  // (B, T) reuses the arena as it is; it is only ever grown.
  const std::size_t total = ActLayout::make(cfg_, B, T).total;
  if (acts_.size() < total) acts_.assign(total, 0.f);
}

const float* Gpt::acts_ptr(ActName which) const {
  const ActLayout a = ActLayout::make(cfg_, B_, T_);
  switch (which) {
    case kActLogits: return acts_.data() + a.logits;
    case kActProbs: return acts_.data() + a.probs;
    case kActValues: return acts_.data() + a.values;
  }
  return nullptr;
}

void Gpt::forward(const int* tokens, int B, int T) {
  head_rows_.resize(static_cast<std::size_t>(B) * T);
  std::iota(head_rows_.begin(), head_rows_.end(), 0);
  forward_body(tokens, B, T);
}

void Gpt::forward(const int* tokens, int B, int T,
                  const std::vector<int>& head_rows) {
  for (std::size_t r = 0; r < head_rows.size(); ++r) {
    require(head_rows[r] >= 0 && head_rows[r] < B * T &&
                (r == 0 || head_rows[r] > head_rows[r - 1]),
            "Gpt::forward: head rows must be strictly ascending in [0, B*T)");
  }
  head_rows_ = head_rows;
  forward_body(tokens, B, T);
}

void Gpt::forward_body(const int* tokens, int B, int T) {
  require(T <= cfg_.ctx, "Gpt::forward: T=%d exceeds ctx=%d", T, cfg_.ctx);
  require_tokens("Gpt::forward", tokens, B * T, cfg_.vocab);
  ensure_acts(B, T);
  const Layout p = Layout::make(cfg_);
  const ActLayout a = ActLayout::make(cfg_, B, T);
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const int BT = B * T;
  float* acts = acts_.data();
  const float* prm = params_.data();

  const bool ref = use_ref_kernels_;

  encoder_forward(acts + a.encoded, tokens, prm + p.wte, prm + p.wpe, B, T, C);
  const float* residual = acts + a.encoded;
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    kern::layernorm_forward(acts + ab + a.ln1, acts + ab + a.ln1_mean,
                            acts + ab + a.ln1_rstd, residual, prm + pb + p.ln1w,
                            prm + pb + p.ln1b, nullptr, BT, C);
    mm_fwd(ref, acts + ab + a.qkv, acts + ab + a.ln1, prm + pb + p.qkvw,
           prm + pb + p.qkvb, BT, C, 3 * C);
    kern::attention_forward(acts + ab + a.atty, acts + ab + a.preatt,
                            acts + ab + a.att, acts + ab + a.qkv, B, T, C, NH);
    mm_fwd(ref, acts + ab + a.attproj, acts + ab + a.atty,
           prm + pb + p.attprojw, prm + pb + p.attprojb, BT, C, C);
    residual_forward(acts + ab + a.res2, residual, acts + ab + a.attproj,
                     BT * C);
    kern::layernorm_forward(acts + ab + a.ln2, acts + ab + a.ln2_mean,
                            acts + ab + a.ln2_rstd, acts + ab + a.res2,
                            prm + pb + p.ln2w, prm + pb + p.ln2b, nullptr, BT,
                            C);
    if (ref) {
      kern::matmul_forward_ref(acts + ab + a.fch, acts + ab + a.ln2,
                               prm + pb + p.fcw, prm + pb + p.fcb, BT, C,
                               4 * C);
      kern::gelu_forward_ref(acts + ab + a.fch_gelu, acts + ab + a.fch,
                             BT * 4 * C);
    } else {
      kern::matmul_bias_gelu_forward(acts + ab + a.fch, acts + ab + a.fch_gelu,
                                     acts + ab + a.ln2, prm + pb + p.fcw,
                                     prm + pb + p.fcb, BT, C, 4 * C);
    }
    mm_fwd(ref, acts + ab + a.fcproj, acts + ab + a.fch_gelu,
           prm + pb + p.fcprojw, prm + pb + p.fcprojb, BT, 4 * C, C);
    residual_forward(acts + ab + a.res3, acts + ab + a.res2,
                     acts + ab + a.fcproj, BT * C);
    residual = acts + ab + a.res3;
  }
  // Final layernorm, tied LM head (logits = lnf @ wte^T), softmax and value
  // head at the head rows only. Every row is computed independently, so a
  // head row's outputs do not depend on which other rows are heads.
  const int R = static_cast<int>(head_rows_.size());
  kern::layernorm_forward(acts + a.lnf, acts + a.lnf_mean, acts + a.lnf_rstd,
                          residual, prm + p.lnfw, prm + p.lnfb,
                          head_rows_.data(), R, C);
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
  const ActLayout a = ActLayout::make(cfg_, B_, T_);
  const int r = b >= 0 && b < B_ && t >= 0 && t < T_ ? head_index(b, t) : -1;
  require(r >= 0,
          "Gpt::logprob: (b=%d, t=%d) is not a head row of the last forward",
          b, t);
  require(tok >= 0 && tok < cfg_.vocab,
          "Gpt::logprob: token %d is outside the vocabulary [0, %d)", tok,
          cfg_.vocab);
  const float pr =
      acts_[a.probs + static_cast<std::size_t>(r) * cfg_.vocab + tok];
  return std::log(pr + 1e-10f);
}

void Gpt::backward_from(const int* tokens, const float* dlogits,
                        const float* dvalues, int B, int T) {
  require(B == B_ && T == T_,
          "Gpt::backward_from: (B=%d, T=%d) is not the last forward's (%d, %d)",
          B, T, B_, T_);
  const Layout p = Layout::make(cfg_);
  const ActLayout a = ActLayout::make(cfg_, B, T);
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const int BT = B * T;
  const int R = static_cast<int>(head_rows_.size());
  const float* acts = acts_.data();
  const float* prm = params_.data();
  float* grd = grads_.data();
  // Sized here rather than with acts_: a model that only runs forward (the
  // frozen PPO reference) never holds a gradient arena. Backward accumulates
  // into every slot before the head outputs (logits, probs, values), which
  // it never touches, so only those slots are zeroed, across the pool.
  if (dacts_.size() < a.total) dacts_.resize(a.total);
  float* dacts = dacts_.data();
  constexpr std::size_t kChunk = std::size_t{1} << 14;
  const std::size_t zeroed = a.logits;
  kern::parallel_ranges(static_cast<int>((zeroed + kChunk - 1) / kChunk),
                        kChunk, [&](int c0, int c1) {
    const std::size_t lo = c0 * kChunk;
    const std::size_t hi = std::min(zeroed, c1 * kChunk);
    std::memset(dacts + lo, 0, (hi - lo) * sizeof(float));
  });

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
                           acts + a.lnf_rstd, prm + p.lnfw, head_rows_.data(),
                           R, C);

  for (int l = cfg_.n_layer - 1; l >= 0; --l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    const float* res_in =
        l == 0 ? acts + a.encoded : acts + a.layer_base + (l - 1) * a.per_layer + a.res3;
    float* dres_in =
        l == 0 ? dacts + a.encoded
               : dacts + a.layer_base + (l - 1) * a.per_layer + a.res3;
    float* dres3 = dacts + ab + a.res3;
    // res3 = res2 + fcproj
    float* dres2 = dacts + ab + a.res2;
    float* dfcproj = dacts + ab + a.fcproj;
    for (int n = 0; n < BT * C; ++n) {
      dres2[n] += dres3[n];
      dfcproj[n] += dres3[n];
    }
    mm_bwd(ref, dacts + ab + a.fch_gelu, grd + pb + p.fcprojw,
           grd + pb + p.fcprojb, dfcproj, acts + ab + a.fch_gelu,
           prm + pb + p.fcprojw, BT, 4 * C, C);
    kern::gelu_backward(dacts + ab + a.fch, acts + ab + a.fch,
                        dacts + ab + a.fch_gelu, BT * 4 * C);
    mm_bwd(ref, dacts + ab + a.ln2, grd + pb + p.fcw, grd + pb + p.fcb,
           dacts + ab + a.fch, acts + ab + a.ln2, prm + pb + p.fcw,
           BT, C, 4 * C);
    kern::layernorm_backward(dres2, grd + pb + p.ln2w, grd + pb + p.ln2b,
                             dacts + ab + a.ln2, acts + ab + a.res2,
                             acts + ab + a.ln2_mean, acts + ab + a.ln2_rstd,
                             prm + pb + p.ln2w, nullptr, BT, C);
    // res2 = residual_in + attproj
    float* dattproj = dacts + ab + a.attproj;
    for (int n = 0; n < BT * C; ++n) {
      dres_in[n] += dres2[n];
      dattproj[n] += dres2[n];
    }
    mm_bwd(ref, dacts + ab + a.atty, grd + pb + p.attprojw,
           grd + pb + p.attprojb, dattproj, acts + ab + a.atty,
           prm + pb + p.attprojw, BT, C, C);
    kern::attention_backward(dacts + ab + a.qkv, dacts + ab + a.preatt,
                             dacts + ab + a.att, dacts + ab + a.atty,
                             acts + ab + a.qkv, acts + ab + a.att, B, T, C, NH);
    mm_bwd(ref, dacts + ab + a.ln1, grd + pb + p.qkvw, grd + pb + p.qkvb,
           dacts + ab + a.qkv, acts + ab + a.ln1, prm + pb + p.qkvw,
           BT, C, 3 * C);
    kern::layernorm_backward(dres_in, grd + pb + p.ln1w, grd + pb + p.ln1b,
                             dacts + ab + a.ln1, res_in, acts + ab + a.ln1_mean,
                             acts + ab + a.ln1_rstd, prm + pb + p.ln1w, nullptr,
                             BT, C);
  }
  encoder_backward(grd + p.wte, grd + p.wpe, dacts + a.encoded, tokens, B, T,
                   C);
}

float Gpt::backward_lm(const int* tokens, const int* targets, int B, int T) {
  const ActLayout a = ActLayout::make(cfg_, B, T);
  const int V = cfg_.vocab;
  const int BT = B * T;
  // count valid targets
  int count = 0;
  for (int n = 0; n < BT; ++n) count += targets[n] >= 0 ? 1 : 0;
  if (count == 0) return 0.f;

  const std::size_t R = head_rows_.size();
  std::vector<float> dlogits(R * V, 0.f);
  const float* probs = acts_.data() + a.probs;
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
  const std::size_t cache =
      static_cast<std::size_t>(cfg_.n_layer) * B * cfg_.ctx * cfg_.n_embd;
  s.kcache.assign(cache, 0.f);
  s.vcache.assign(cache, 0.f);
  // scratch: x, ln, qkv, atty, proj, fch, fgel per batch row
  const std::size_t C = cfg_.n_embd;
  s.scratch.assign(static_cast<std::size_t>(B) * (C * 5 + 3 * C + 8 * C), 0.f);
  // Attention-score and layernorm scratch, one slice per row so the rows
  // can decode in parallel, sized from the config (the seed used a fixed
  // float[512] stack buffer here, which a large-ctx config would silently
  // overrun).
  s.att.assign(static_cast<std::size_t>(B) * cfg_.ctx, 0.f);
  s.norm.assign(static_cast<std::size_t>(2) * B, 0.f);
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
  OBS_SPAN("ml.gen_step");
  require(s.t < cfg_.ctx, "Gpt::gen_step: position %d is past ctx=%d", s.t,
          cfg_.ctx);
  require_tokens("Gpt::gen_step", tokens_t, s.B, cfg_.vocab);
  // One pool dispatch per token, split by batch row: rows never meet in a
  // decode step, so each part runs every layer for its own rows and the
  // bits do not depend on the split.
  const std::size_t C = cfg_.n_embd, L = cfg_.n_layer;
  const std::size_t work = 2 * C * (12 * C * L + cfg_.vocab) +
                           4 * C * L * static_cast<std::size_t>(s.t + 1);
  kern::parallel_ranges(s.B, work, [&](int b0, int b1) {
    gen_rows(s, tokens_t, logits_out, b0, b1);
  });
  ++s.t;
}

void Gpt::gen_rows(GenState& s, const int* tokens_t, float* logits_out, int b0,
                   int b1) const {
  const Layout p = Layout::make(cfg_);
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const int hs = C / NH;
  const int B = s.B, nb = b1 - b0;
  const int pos = s.t;
  const float* prm = params_.data();
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  // Packed weights are built by gen_begin; toggling the kernel path between
  // gen_begin and gen_step is not supported.
  const bool ref = s.wpack.empty();

  // This part's rows of each [B, ...] scratch buffer.
  float* base = s.scratch.data();
  const std::size_t BC = static_cast<std::size_t>(B) * C, r0 = b0;
  float* x = base + r0 * C;                   // [B, C]
  float* ln = base + BC + r0 * C;             // [B, C]
  float* qkv = base + 2 * BC + r0 * 3 * C;    // [B, 3C]
  float* atty = base + 5 * BC + r0 * C;       // [B, C]
  float* proj = base + 6 * BC + r0 * C;       // [B, C]
  float* fch = base + 7 * BC + r0 * 4 * C;    // [B, 4C]
  float* fgel = base + 11 * BC + r0 * 4 * C;  // [B, 4C]
  float* mean = s.norm.data() + r0;           // [B]
  float* rstd = s.norm.data() + B + r0;       // [B]
  float* logits = logits_out + r0 * V;

  for (int b = 0; b < nb; ++b) {
    const float* we =
        prm + p.wte + static_cast<std::size_t>(tokens_t[b0 + b]) * C;
    const float* pe = prm + p.wpe + static_cast<std::size_t>(pos) * C;
    for (int c = 0; c < C; ++c) x[b * C + c] = we[c] + pe[c];
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
    // append k/v to the cache, then attend over it
    for (int b = 0; b < nb; ++b) {
      const std::size_t row = static_cast<std::size_t>(l) * B + b0 + b;
      float* kbase = s.kcache.data() + row * cfg_.ctx * C;
      float* vbase = s.vcache.data() + row * cfg_.ctx * C;
      const float* qkv_b = qkv + static_cast<std::size_t>(b) * 3 * C;
      std::memcpy(kbase + static_cast<std::size_t>(pos) * C, qkv_b + C,
                  sizeof(float) * C);
      std::memcpy(vbase + static_cast<std::size_t>(pos) * C, qkv_b + 2 * C,
                  sizeof(float) * C);
      float* att = s.att.data() + (r0 + b) * cfg_.ctx;
      for (int h = 0; h < NH; ++h) {
        const float* q = qkv_b + h * hs;
        float maxv = -1e30f;
        for (int t2 = 0; t2 <= pos; ++t2) {
          const float* k = kbase + static_cast<std::size_t>(t2) * C + h * hs;
          float dot = 0.f;
          for (int i = 0; i < hs; ++i) dot += q[i] * k[i];
          dot *= scale;
          att[t2] = dot;
          maxv = dot > maxv ? dot : maxv;
        }
        float sum = 0.f;
        for (int t2 = 0; t2 <= pos; ++t2) {
          att[t2] = std::exp(att[t2] - maxv);
          sum += att[t2];
        }
        const float inv = 1.f / sum;
        float* o = atty + b * C + h * hs;
        for (int i = 0; i < hs; ++i) o[i] = 0.f;
        for (int t2 = 0; t2 <= pos; ++t2) {
          const float* v = vbase + static_cast<std::size_t>(t2) * C + h * hs;
          const float w = att[t2] * inv;
          for (int i = 0; i < hs; ++i) o[i] += w * v[i];
        }
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
