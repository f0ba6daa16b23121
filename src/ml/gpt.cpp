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

/// Replaces `arena` with n floats that nothing has written yet. The old
/// contents are dropped, not copied into the new block.
template <typename Arena>
void regrow(Arena& arena, std::size_t n) {
  arena = Arena();
  arena.resize(n);
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
struct Gpt::ActLayout {
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

namespace {

// Packed weights (kern::PackedMat), in pack_weights' order: four per layer,
// then the tied LM head and the value head.
enum PackedWeight : int { kQkv, kAttProj, kFc, kFcProj, kPerLayer };

}  // namespace

/// Offset of the residual stream the final layernorm reads: the last
/// layer's output, or the embedding without layers.
std::size_t Gpt::final_residual(const ActLayout& a) const {
  return cfg_.n_layer > 0
             ? a.layer_base + (cfg_.n_layer - 1) * a.per_layer + a.res3
             : a.encoded;
}

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

Gpt::ActLayout Gpt::act_layout() const {
  return ActLayout::make(cfg_, offs_.empty() ? 0 : offs_.back(),
                         head_rows_.size(), att_size_);
}

const float* Gpt::acts_ptr(ActName which) const {
  const ActLayout a = act_layout();
  switch (which) {
    case kActLogits: return acts_.data() + a.logits;
    case kActProbs: return acts_.data() + a.probs;
    case kActValues: return acts_.data() + a.values;
  }
  return nullptr;
}

void Gpt::pack_weights(std::vector<kern::PackedMat>& wp) const {
  const Layout p = Layout::make(cfg_);
  const float* prm = params_.data();
  const int C = cfg_.n_embd;
  const std::size_t head = static_cast<std::size_t>(cfg_.n_layer) * kPerLayer;
  wp.resize(head + 2);
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    kern::PackedMat* w = wp.data() + static_cast<std::size_t>(l) * kPerLayer;
    kern::pack_transpose(w[kQkv], prm + pb + p.qkvw, 3 * C, C);
    kern::pack_transpose(w[kAttProj], prm + pb + p.attprojw, C, C);
    kern::pack_transpose(w[kFc], prm + pb + p.fcw, 4 * C, C);
    kern::pack_transpose(w[kFcProj], prm + pb + p.fcprojw, C, 4 * C);
  }
  kern::pack_transpose(wp[head], prm + p.wte, cfg_.vocab, C);
  kern::pack_transpose(wp[head + 1], prm + p.valw, 1, C);
}

std::size_t Gpt::sequence_work() const {
  // Rough forward flops of the longest sequence, for the pool's split.
  const std::size_t L = order_.empty()
                            ? 0
                            : static_cast<std::size_t>(offs_[order_[0] + 1] -
                                                       offs_[order_[0]]);
  const std::size_t C = cfg_.n_embd, NL = cfg_.n_layer;
  return 2 * L * C * (12 * C * NL + cfg_.vocab) + 4 * L * L * C * NL;
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
  const int NH = cfg_.n_head, V = cfg_.vocab;
  offs_.assign(static_cast<std::size_t>(B) + 1, 0);
  att_offs_.assign(static_cast<std::size_t>(B) + 1, 0);
  for (int b = 0; b < B; ++b) {
    require(lengths[b] >= 0 && lengths[b] <= T,
            "Gpt::forward: length %d of sequence %d is outside [0, T=%d]",
            lengths[b], b, T);
    offs_[b + 1] = offs_[b] + lengths[b];
    const std::size_t L = lengths[b];
    att_offs_[b + 1] = att_offs_[b] + NH * L * L;
    for (int t = 0; t < lengths[b]; ++t) {
      require(tokens[b * T + t] >= 0 && tokens[b * T + t] < V,
              "Gpt::forward: token %d at %d is outside the vocabulary [0, %d)",
              tokens[b * T + t], b * T + t, V);
    }
  }
  att_size_ = att_offs_[B];
  head_rows_ = head_rows;
  const int R = static_cast<int>(head_rows_.size());
  head_packed_.resize(R);
  hoffs_.assign(static_cast<std::size_t>(B) + 1, 0);
  for (int r = 0; r < R; ++r) {
    const int b = head_rows_[r] / T, t = head_rows_[r] % T;
    require(t < offs_[b + 1] - offs_[b],
            "Gpt::forward: head row %d is padding (sequence %d has length %d)",
            head_rows_[r], b, offs_[b + 1] - offs_[b]);
    head_packed_[r] = offs_[b] + t;
    ++hoffs_[b + 1];
  }
  for (int b = 0; b < B; ++b) hoffs_[b + 1] += hoffs_[b];
  order_.resize(B);
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](int x, int y) {
    return lengths[x] > lengths[y];
  });
  // Every activation is written before anything reads it, so a new shape
  // reuses the arena as it is. It grows straight to the padded [B, T]
  // batch's size, so the ragged batches that follow, whose real-row counts
  // vary, do not grow it again; each sequence's thread then takes the page
  // faults of the rows it writes.
  if (acts_.size() < act_layout().total) {
    regrow(acts_, ActLayout::padded(cfg_, B, T).total);
  }
  if (!use_ref_kernels_) pack_weights(wpack_);
  // One dispatch: every sequence runs the whole model on one thread.
  kern::parallel_items(B, sequence_work(),
                       [&](int i) { forward_sequence(tokens, order_[i]); });
}

void Gpt::forward_sequence(const int* tokens, int b) {
  const int o = offs_[b], L = offs_[b + 1] - o;
  const int h0 = hoffs_[b], R = hoffs_[b + 1] - h0;
  if (L == 0) return;  // nor has it head rows
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const Layout p = Layout::make(cfg_);
  const ActLayout a = act_layout();
  const float* prm = params_.data();
  float* acts = acts_.data();
  const bool ref = use_ref_kernels_;
  // Row o of the activation at `off`, `width` floats per row.
  const auto at = [&](std::size_t off, int width) {
    return acts + off + static_cast<std::size_t>(o) * width;
  };
  // out = inp @ w^T + bias over n rows; w is packed as wpack_[k].
  const auto linear = [&](float* out, const float* inp, std::size_t k,
                          std::size_t w, const float* bias, int n, int Cin,
                          int Cout) {
    if (ref) {
      kern::matmul_forward_ref(out, inp, prm + w, bias, n, Cin, Cout);
    } else {
      kern::matmul_forward_packed(out, inp, wpack_[k], bias, n);
    }
  };
  const auto add = [L, C](float* out, const float* x, const float* y) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(L) * C; ++i) {
      out[i] = x[i] + y[i];
    }
  };

  float* x = at(a.encoded, C);
  const int* tok = tokens + static_cast<std::size_t>(b) * T_;
  for (int t = 0; t < L; ++t) {
    const float* we = prm + p.wte + static_cast<std::size_t>(tok[t]) * C;
    const float* pe = prm + p.wpe + static_cast<std::size_t>(t) * C;
    for (int c = 0; c < C; ++c) x[t * C + c] = we[c] + pe[c];
  }
  const float* residual = x;
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    const std::size_t k = static_cast<std::size_t>(l) * kPerLayer;
    float* ln1 = at(ab + a.ln1, C);
    float* qkv = at(ab + a.qkv, 3 * C);
    float* atty = at(ab + a.atty, C);
    float* attproj = at(ab + a.attproj, C);
    float* res2 = at(ab + a.res2, C);
    float* ln2 = at(ab + a.ln2, C);
    float* fch = at(ab + a.fch, 4 * C);
    float* fch_gelu = at(ab + a.fch_gelu, 4 * C);
    float* fcproj = at(ab + a.fcproj, C);
    float* res3 = at(ab + a.res3, C);
    kern::layernorm_forward(ln1, at(ab + a.ln1_mean, 1), at(ab + a.ln1_rstd, 1),
                            residual, prm + pb + p.ln1w, prm + pb + p.ln1b,
                            nullptr, L, C);
    linear(qkv, ln1, k + kQkv, pb + p.qkvw, prm + pb + p.qkvb, L, C, 3 * C);
    kern::attention_forward(atty, acts + a.att + l * att_size_ + att_offs_[b],
                            qkv, L, C, NH);
    linear(attproj, atty, k + kAttProj, pb + p.attprojw, prm + pb + p.attprojb,
           L, C, C);
    add(res2, residual, attproj);
    kern::layernorm_forward(ln2, at(ab + a.ln2_mean, 1), at(ab + a.ln2_rstd, 1),
                            res2, prm + pb + p.ln2w, prm + pb + p.ln2b, nullptr,
                            L, C);
    if (ref) {
      kern::matmul_forward_ref(fch, ln2, prm + pb + p.fcw, prm + pb + p.fcb, L,
                               C, 4 * C);
      kern::gelu_forward_ref(fch_gelu, fch, L * 4 * C);
    } else {
      kern::matmul_bias_gelu_forward(fch, fch_gelu, ln2, wpack_[k + kFc],
                                     prm + pb + p.fcb, L);
    }
    linear(fcproj, fch_gelu, k + kFcProj, pb + p.fcprojw, prm + pb + p.fcprojb,
           L, 4 * C, C);
    add(res3, res2, fcproj);
    residual = res3;
  }
  // Final layernorm, tied LM head (logits = lnf @ wte^T), softmax and value
  // head at this sequence's head rows, which are packed rows of the last
  // residual. Every row is computed independently, so a head row's outputs
  // do not depend on which other rows are heads.
  const std::size_t head = static_cast<std::size_t>(cfg_.n_layer) * kPerLayer;
  float* lnf = acts + a.lnf + static_cast<std::size_t>(h0) * C;
  float* logits = acts + a.logits + static_cast<std::size_t>(h0) * V;
  kern::layernorm_forward(lnf, acts + a.lnf_mean + h0, acts + a.lnf_rstd + h0,
                          acts + final_residual(a), prm + p.lnfw,
                          prm + p.lnfb, head_packed_.data() + h0, R, C);
  linear(logits, lnf, head, p.wte, nullptr, R, C, V);
  kern::softmax_forward(acts + a.probs + static_cast<std::size_t>(h0) * V,
                        logits, R, V);
  linear(acts + a.values + h0, lnf, head + 1, p.valw, prm + p.valb, R, C, 1);
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
  // Sized here rather than with acts_: a model that only runs forward (the
  // frozen PPO reference) never holds a gradient arena. Backward accumulates
  // into every slot before the head outputs (logits, probs, values) and the
  // attention probabilities, which it never touches, so the arena ends
  // there. Each sequence's thread zeroes its own rows.
  if (dacts_.size() < act_layout().logits) {
    regrow(dacts_, ActLayout::padded(cfg_, B, T).logits);
  }
  // Dispatch 1: the activation-gradient chain, one sequence per item. Rows
  // of different sequences never meet in it.
  kern::parallel_items(B, 2 * sequence_work(), [&](int i) {
    backward_sequence(dlogits, dvalues, order_[i]);
  });
  // Dispatch 2: the weight, bias and layernorm gradients, the only sums
  // across rows, which therefore wait for every sequence's chain.
  weight_gradients(tokens, dlogits, dvalues);
}

void Gpt::backward_sequence(const float* dlogits, const float* dvalues,
                            int b) {
  const int o = offs_[b], L = offs_[b + 1] - o;
  const int h0 = hoffs_[b], R = hoffs_[b + 1] - h0;
  if (L == 0) return;
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const Layout p = Layout::make(cfg_);
  const ActLayout a = act_layout();
  const float* prm = params_.data();
  const float* acts = acts_.data();
  float* dacts = dacts_.data();
  const std::size_t LC = static_cast<std::size_t>(L) * C;
  // Row o of the activation, or of its gradient, at `off`.
  const auto act = [&](std::size_t off, int width) {
    return acts + off + static_cast<std::size_t>(o) * width;
  };
  const auto grad = [&](std::size_t off, int width) {
    return dacts + off + static_cast<std::size_t>(o) * width;
  };
  // Every gradient slot starts at zero and accumulates; a first write that
  // stored instead would turn 0 + (-0) = +0 into -0.
  const auto zero = [&](std::size_t off, int width) {
    std::memset(grad(off, width), 0,
                static_cast<std::size_t>(L) * width * sizeof(float));
  };
  // da += dout and db += dout: the backward of out = a + b.
  const auto residual_backward = [LC](float* da, float* db, const float* d) {
    for (std::size_t i = 0; i < LC; ++i) {
      da[i] += d[i];
      db[i] += d[i];
    }
  };

  zero(a.encoded, C);
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t ab = a.layer_base + l * a.per_layer;
    for (const std::size_t off : {a.ln1, a.atty, a.attproj, a.res2, a.ln2,
                                  a.fcproj, a.res3}) {
      zero(ab + off, C);
    }
    zero(ab + a.qkv, 3 * C);
    zero(ab + a.fch, 4 * C);
    zero(ab + a.fch_gelu, 4 * C);
  }
  float* dlnf = dacts + a.lnf + static_cast<std::size_t>(h0) * C;
  std::memset(dlnf, 0, static_cast<std::size_t>(R) * C * sizeof(float));

  // The value head's term enters dlnf before the LM head's (tied weights:
  // dlnf += dlogits @ wte).
  if (dvalues != nullptr) {
    for (int r = 0; r < R; ++r) {
      const float g = dvalues[h0 + r];
      if (g == 0.f) continue;
      float* dlnfx = dlnf + static_cast<std::size_t>(r) * C;
      for (int c = 0; c < C; ++c) dlnfx[c] += g * prm[p.valw + c];
    }
  }
  kern::matmul_backward_dx(dlnf, dlogits + static_cast<std::size_t>(h0) * V,
                           prm + p.wte, R, C, V);
  const std::size_t res_off = final_residual(a);
  kern::layernorm_backward_dx(dacts + res_off, dlnf, acts + res_off,
                              acts + a.lnf_mean + h0, acts + a.lnf_rstd + h0,
                              prm + p.lnfw, head_packed_.data() + h0, R, C);

  for (int l = cfg_.n_layer - 1; l >= 0; --l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    const std::size_t in =
        l == 0 ? a.encoded : a.layer_base + (l - 1) * a.per_layer + a.res3;
    // res3 = res2 + fcproj. Each residual_backward runs before the
    // layernorm dx that adds into the same rows.
    residual_backward(grad(ab + a.res2, C), grad(ab + a.fcproj, C),
                      grad(ab + a.res3, C));
    kern::matmul_backward_dx(grad(ab + a.fch_gelu, 4 * C),
                             grad(ab + a.fcproj, C), prm + pb + p.fcprojw, L,
                             4 * C, C);
    kern::gelu_backward(grad(ab + a.fch, 4 * C), act(ab + a.fch, 4 * C),
                        grad(ab + a.fch_gelu, 4 * C), L * 4 * C);
    kern::matmul_backward_dx(grad(ab + a.ln2, C), grad(ab + a.fch, 4 * C),
                             prm + pb + p.fcw, L, C, 4 * C);
    kern::layernorm_backward_dx(grad(ab + a.res2, C), grad(ab + a.ln2, C),
                                act(ab + a.res2, C), act(ab + a.ln2_mean, 1),
                                act(ab + a.ln2_rstd, 1), prm + pb + p.ln2w,
                                nullptr, L, C);
    // res2 = residual_in + attproj
    residual_backward(grad(in, C), grad(ab + a.attproj, C),
                      grad(ab + a.res2, C));
    kern::matmul_backward_dx(grad(ab + a.atty, C), grad(ab + a.attproj, C),
                             prm + pb + p.attprojw, L, C, C);
    kern::attention_backward(grad(ab + a.qkv, 3 * C), grad(ab + a.atty, C),
                             act(ab + a.qkv, 3 * C),
                             acts + a.att + l * att_size_ + att_offs_[b], L, C,
                             NH);
    kern::matmul_backward_dx(grad(ab + a.ln1, C), grad(ab + a.qkv, 3 * C),
                             prm + pb + p.qkvw, L, C, 3 * C);
    kern::layernorm_backward_dx(grad(in, C), grad(ab + a.ln1, C), act(in, C),
                                act(ab + a.ln1_mean, 1), act(ab + a.ln1_rstd, 1),
                                prm + pb + p.ln1w, nullptr, L, C);
  }
}

void Gpt::weight_gradients(const int* tokens, const float* dlogits,
                           const float* dvalues) {
  const int C = cfg_.n_embd, V = cfg_.vocab;
  const int N = offs_[B_], R = static_cast<int>(head_rows_.size());
  const Layout p = Layout::make(cfg_);
  const ActLayout a = act_layout();
  const float* acts = acts_.data();
  const float* dacts = dacts_.data();
  float* grd = grads_.data();

  // dw[o, i] += sum_n dout[n, o] * inp[n, i] and db[o] += sum_n dout[n, o]
  // over n < rows: one weight matrix's gradient.
  struct Linear {
    float* dw;
    float* db;
    const float* dout;
    const float* inp;
    int rows, Cin, Cout;
  };
  // A layernorm's: dw[c] and db[c] add every row's term, ascending.
  struct Norm {
    float* dw;
    float* db;
    const float* dout;
    const float* inp;
    const float* mean;
    const float* rstd;
    const int* rows;
    int n;
  };
  std::vector<Linear> lin{{grd + p.wte, nullptr, dlogits, acts + a.lnf, R, C,
                           V}};  // the tied LM head comes first
  std::vector<Norm> norms{{grd + p.lnfw, grd + p.lnfb, dacts + a.lnf,
                           acts + final_residual(a), acts + a.lnf_mean,
                           acts + a.lnf_rstd, head_packed_.data(), R}};
  for (int l = 0; l < cfg_.n_layer; ++l) {
    float* pb = grd + p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    const std::size_t in =
        l == 0 ? a.encoded : a.layer_base + (l - 1) * a.per_layer + a.res3;
    lin.push_back({pb + p.qkvw, pb + p.qkvb, dacts + ab + a.qkv,
                   acts + ab + a.ln1, N, C, 3 * C});
    lin.push_back({pb + p.attprojw, pb + p.attprojb, dacts + ab + a.attproj,
                   acts + ab + a.atty, N, C, C});
    lin.push_back({pb + p.fcw, pb + p.fcb, dacts + ab + a.fch,
                   acts + ab + a.ln2, N, C, 4 * C});
    lin.push_back({pb + p.fcprojw, pb + p.fcprojb, dacts + ab + a.fcproj,
                   acts + ab + a.fch_gelu, N, 4 * C, C});
    norms.push_back({pb + p.ln1w, pb + p.ln1b, dacts + ab + a.ln1, acts + in,
                     acts + ab + a.ln1_mean, acts + ab + a.ln1_rstd, nullptr,
                     N});
    norms.push_back({pb + p.ln2w, pb + p.ln2b, dacts + ab + a.ln2,
                     acts + ab + a.res2, acts + ab + a.ln2_mean,
                     acts + ab + a.ln2_rstd, nullptr, N});
  }

  // One item per (tensor, output block), biggest first; every element of a
  // gradient is one ascending-row sum inside one item.
  enum Kind { kLinear, kNorm, kPositions, kValue };
  struct Item {
    Kind kind;
    int index, o0, o1;  // o0, o1: a kLinear item's output rows
    std::size_t work;
  };
  // An item of a weight gradient covers about kItemWeights weights (96
  // output rows at Cin = 64, 24 at Cin = 256): each block of input rows it
  // streams then serves several 6-row GEMM tiles, and the items of a PPO
  // batch still outnumber the threads several times over.
  constexpr int kItemWeights = 6144;
  std::vector<Item> items;
  for (std::size_t i = 0; i < lin.size(); ++i) {
    const Linear& g = lin[i];
    const int block = std::max(6, kItemWeights / g.Cin / 6 * 6);
    for (int o0 = 0; o0 < g.Cout; o0 += block) {
      const int o1 = std::min(o0 + block, g.Cout);
      items.push_back({kLinear, static_cast<int>(i), o0, o1,
                       static_cast<std::size_t>(o1 - o0) * g.Cin * g.rows});
    }
  }
  for (std::size_t i = 0; i < norms.size(); ++i) {
    items.push_back({kNorm, static_cast<int>(i), 0, 0,
                     static_cast<std::size_t>(4) * C * norms[i].n});
  }
  items.push_back({kPositions, 0, 0, 0, static_cast<std::size_t>(C) * N});
  if (dvalues != nullptr) {
    items.push_back({kValue, 0, 0, 0, static_cast<std::size_t>(2) * C * R});
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& x, const Item& y) { return x.work > y.work; });
  std::size_t work = 0;
  for (const Item& it : items) work += it.work;

  // Embedding rows scattered from the gradient of the encoder's output, in
  // ascending packed row: rows [o0, o1) of dwte (by token) or every row of
  // dwpe (by position).
  const auto scatter = [&](float* dst, bool by_token, int o0, int o1) {
    for (int b = 0; b < B_; ++b) {
      const int* tok = tokens + static_cast<std::size_t>(b) * T_;
      for (int t = 0; t < offs_[b + 1] - offs_[b]; ++t) {
        const int row = by_token ? tok[t] : t;
        if (row < o0 || row >= o1) continue;
        const float* d =
            dacts + a.encoded + static_cast<std::size_t>(offs_[b] + t) * C;
        float* dw = dst + static_cast<std::size_t>(row) * C;
        for (int c = 0; c < C; ++c) dw[c] += d[c];
      }
    }
  };
  kern::parallel_items(static_cast<int>(items.size()), work / items.size(),
                       [&](int k) {
    const Item& it = items[k];
    switch (it.kind) {
      case kLinear: {
        const Linear& g = lin[it.index];
        kern::matmul_backward_dw(g.dw, g.db, g.dout, g.inp, g.rows, g.Cin,
                                 g.Cout, it.o0, it.o1);
        // The embedding's share of the tied wte follows the LM head's.
        if (it.index == 0) scatter(grd + p.wte, true, it.o0, it.o1);
        break;
      }
      case kNorm: {
        const Norm& g = norms[it.index];
        kern::layernorm_backward_dw(g.dw, g.db, g.dout, g.inp, g.mean, g.rstd,
                                    g.rows, g.n, C);
        break;
      }
      case kPositions:
        scatter(grd + p.wpe, false, 0, T_);
        break;
      case kValue:
        for (int r = 0; r < R; ++r) {
          const float g = dvalues[r];
          if (g == 0.f) continue;
          grd[p.valb] += g;
          const float* lnfx = acts + a.lnf + static_cast<std::size_t>(r) * C;
          for (int c = 0; c < C; ++c) grd[p.valw + c] += g * lnfx[c];
        }
        break;
    }
  });
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
  // Packed (transposed) weight views: one pack per generation, then every
  // per-token matvec streams weights linearly (see kern::PackedMat). Pack
  // cost is one pass over the parameters — amortized across ctx tokens.
  if (!use_ref_kernels_) pack_weights(s.wpack);
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
    const std::size_t k = static_cast<std::size_t>(l) * kPerLayer;
    kern::layernorm_forward(ln, mean, rstd, x, prm + pb + p.ln1w,
                            prm + pb + p.ln1b, nullptr, nb, C);
    if (ref) {
      kern::matmul_forward_ref(qkv, ln, prm + pb + p.qkvw, prm + pb + p.qkvb,
                               nb, C, 3 * C);
    } else {
      kern::matmul_forward_packed(qkv, ln, s.wpack[k + kQkv],
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
      kern::matmul_forward_packed(proj, atty, s.wpack[k + kAttProj],
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
      kern::matmul_bias_gelu_forward_packed(fch, fgel, ln, s.wpack[k + kFc],
                                            prm + pb + p.fcb, nb);
      kern::matmul_forward_packed(proj, fgel, s.wpack[k + kFcProj],
                                  prm + pb + p.fcprojb, nb);
    }
    for (int n = 0; n < nb * C; ++n) x[n] += proj[n];
  }
  kern::layernorm_forward(ln, mean, rstd, x, prm + p.lnfw, prm + p.lnfb,
                          nullptr, nb, C);
  const std::size_t head = static_cast<std::size_t>(cfg_.n_layer) * kPerLayer;
  if (ref) {
    kern::matmul_forward_ref(logits, ln, prm + p.wte, nullptr, nb, C, V);
  } else {
    kern::matmul_forward_packed(logits, ln, s.wpack[head], nullptr, nb);
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
