// GPT-2-class decoder-only transformer with manual forward/backward on CPU
// (llm.c-style flat buffers): token+position embeddings, pre-norm causal
// self-attention blocks, GELU MLPs, tied LM head, plus a scalar value head
// for PPO. This is the "LLM-based Input Generator" of the paper, scaled to
// CPU-trainable size (see README, "What stands in for the paper's setup").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ml/kernels.h"
#include "util/serialize.h"

namespace chatfuzz::ml {

struct GptConfig {
  int vocab = 259;   // Tokenizer::kVocabSize
  int ctx = 128;     // max sequence length in tokens
  int n_layer = 4;
  int n_head = 4;
  int n_embd = 128;

  /// Paper-scale training benches (stage-1/2 convergence studies).
  static GptConfig paper() { return GptConfig{}; }
  /// Campaign config: small enough that a full fuzzing loop (generate →
  /// simulate → PPO) runs in seconds per batch on one CPU core.
  static GptConfig small() { return GptConfig{259, 128, 2, 4, 64}; }
  /// Unit-test config (gradient checks etc.).
  static GptConfig tiny() { return GptConfig{64, 32, 1, 2, 16}; }

  int head_size() const { return n_embd / n_head; }
};

/// std::allocator whose value-initialization is default-initialization: a
/// vector's resize() leaves new floats unwritten, so whoever fills them
/// first takes their page faults.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Flat-buffer GPT-2 model. All parameters live in one contiguous vector
/// (same layout for gradients), which makes the optimizer and
/// reference-model snapshots trivial. The public entry points check their
/// preconditions in every build type and abort with a message when one
/// fails, since they index buffers with their arguments.
class Gpt {
 public:
  /// Validates the config hard (even in release builds): ctx/vocab/n_embd
  /// must be positive and n_embd divisible by n_head — generation scratch
  /// and the attention head split are sized from these.
  Gpt(GptConfig cfg, std::uint64_t seed);

  const GptConfig& config() const { return cfg_; }
  std::size_t num_params() const { return params_.size(); }
  std::vector<float>& params() { return params_; }
  const std::vector<float>& params() const { return params_; }
  std::vector<float>& grads() { return grads_; }
  void zero_grad();

  /// Make this model a parameter copy of `other` (reference snapshots),
  /// whose config must equal this one's.
  void copy_params_from(const Gpt& other);

  // ---- training-path forward/backward -------------------------------------
  // Rows are flat indices b*T+t of a [B, T] token batch. A forward may give
  // each sequence a length L_b <= T: rows t >= L_b are padding, which no
  // kernel touches. The activation arenas hold the real rows only, packed
  // sequence after sequence (row (b, t) at sum_{b' < b} L_b' + t), plus one
  // L_b x L_b attention-probability block per (layer, sequence, head); no
  // buffer is sized by B*T*T. Padding sits at the tail and attention is
  // causal, so a real row never reads a padded one, and a padded row's
  // gradients would be exact zeros: its outputs and the gradients equal the
  // padded all-rows computation's, bit for bit.
  //
  // The passes are sequence-major. A forward enters the kernel pool once: it
  // packs every GEMM weight, then hands whole sequences, longest first, to
  // whichever thread is free, and that thread runs its sequence through the
  // embedding, every layer, and the final layernorm and heads at its head
  // rows. A backward enters the pool twice: first each sequence's
  // activation-gradient chain, from the value and LM heads back to the
  // embedding, on one thread per sequence; then the weight, bias and
  // layernorm gradients, as (tensor, output block) items, biggest first.
  // Rows of different sequences meet only in those gradient sums, and each
  // of their elements is one sum over the rows in ascending order, so every
  // output and gradient has the same bits at any thread count.

  /// Forward over a [B,T] token batch. Computes logits, log-softmax-ready
  /// probs, and the value head at every row. T must be <= ctx; tokens in
  /// [0, vocab). Every sequence has length T.
  void forward(const int* tokens, int B, int T);

  /// Forward that runs the final layernorm, LM head, softmax and value head
  /// only at `head_rows`: flat indices b*T+t, strictly ascending. The
  /// transformer blocks still cover every row. Head outputs are packed in
  /// head_rows order, so logits()/probs() are [R, V] and values() is [R];
  /// they equal the all-rows forward's outputs at those rows, bit for bit.
  void forward(const int* tokens, int B, int T,
               const std::vector<int>& head_rows);

  /// The head-rows forward over ragged sequences: sequence b is
  /// tokens[b*T, b*T + lengths[b]), each length in [0, T], and the rest of
  /// its row is padding that is never read. Every head row must be a real
  /// row (t < lengths[b]).
  void forward(const int* tokens, int B, int T,
               const std::vector<int>& head_rows,
               const std::vector<int>& lengths);

  /// Language-model loss vs. targets [B,T] (target -1 = ignore position).
  /// Must follow forward() on the same batch, and every row with a target
  /// must be a head row of it. Runs over the last forward's lengths.
  /// Accumulates gradients and returns mean cross-entropy over non-ignored
  /// positions.
  float backward_lm(const int* tokens, const int* targets, int B, int T);

  /// Policy-gradient path: caller supplies dL/dlogits [R,V] and dL/dvalue
  /// [R] (or null) at the last forward's R head rows (R = B*T after the
  /// all-rows forward); gradients are accumulated into grads(). (B, T) must
  /// be the last forward's, and so are the sequence lengths.
  void backward_from(const int* tokens, const float* dlogits,
                     const float* dvalues, int B, int T);

  /// Views of the last forward's head outputs (see forward()).
  const float* logits() const { return acts_ptr(kActLogits); }
  const float* probs() const { return acts_ptr(kActProbs); }
  const float* values() const { return acts_ptr(kActValues); }
  int last_B() const { return B_; }
  int last_T() const { return T_; }

  /// Log-probability of token `tok` (in [0, vocab)) at (b, t), which must be
  /// a head row of the last forward.
  float logprob(int b, int t, int tok) const;

  // ---- incremental (KV-cache) generation path ------------------------------
  /// Opaque per-generation state: per-layer K/V caches for a batch, packed
  /// (transposed) weight views so each per-token matvec streams weights
  /// linearly, and all decode scratch, one slice per batch row (sized from
  /// cfg.ctx — no fixed-size stack arrays). Keys are cached transposed per
  /// head, so attention's query-key dot products run lane-parallel across
  /// positions, as in training.
  struct GenState {
    int B = 0;
    int t = 0;  // positions already consumed
    int ctx_pad = 0;  // ctx rounded up to a whole group of 8 positions
    std::vector<float> kt;      // [L, B, C, ctx_pad]: keys, transposed
    std::vector<float> vcache;  // [L, B, ctx, C]
    std::vector<float> scratch;
    std::vector<float> att;     // [B, ctx_pad] attention-probability rows
    std::vector<float> norm;    // [2, B] layernorm mean/rstd scratch
    std::vector<float> logits;  // [B, vocab] head outputs before scatter
    std::vector<unsigned char> live;  // 1 while a row has run every step
    std::vector<kern::PackedMat> wpack;  // pack_weights(): per layer qkv,
                                         // attproj, fc, fcproj; then the
                                         // tied LM head and the value head
  };

  /// Begin incremental generation for a batch of B > 0 sequences.
  GenState gen_begin(int B) const;

  /// Feed one token per sequence (tokens_t[B], each in [0, vocab);
  /// position = state.t < ctx) and get next-token logits [B, vocab] in
  /// logits_out. Advances state.t. The batch rows are split across the
  /// kernel pool; the logits are the same bits at any thread count.
  void gen_step(GenState& state, const int* tokens_t, float* logits_out) const;

  /// gen_step for the active rows only: `rows` is strictly ascending in
  /// [0, B). tokens_t and logits_out keep their [B] and [B, vocab] shapes;
  /// the other rows are neither read nor written. Rows never meet in a
  /// decode step, so an active row's logits are the bits the all-rows step
  /// gives. A row left out of a step has stopped for good: its cache misses
  /// that position, so it may not be active again.
  void gen_step(GenState& state, const int* tokens_t, float* logits_out,
                const std::vector<int>& rows) const;

  // ---- persistence ----------------------------------------------------------
  /// Versioned + checksummed model file (util/serialize.h container). On
  /// failure the Status carries the path and errno / truncation / config
  /// detail — callers must surface it, not silently fall back to a fresh
  /// model. load() requires the file's config to match this model's.
  ser::Status save(const std::string& path) const;
  ser::Status load(const std::string& path);

  /// Embed / extract the parameters within a larger snapshot stream
  /// (campaign checkpoints). Config is validated the same way load() does.
  void save_state(ser::Writer& w) const;
  bool restore_state(ser::Reader& r);

  /// Route the forward passes' matmul/GELU work (the training forward and
  /// decode) through the seed's naive reference kernels instead of the
  /// vectorized subsystem (ml/kernels.h). Parity-test hook; off by default.
  /// Backward always runs the vectorized kernels, which kernels_test checks
  /// against the references one by one. Attention, layernorm and softmax
  /// reproduce their references bit for bit, so they have no switch.
  void set_use_ref_kernels(bool ref) { use_ref_kernels_ = ref; }
  bool use_ref_kernels() const { return use_ref_kernels_; }

 private:
  enum ActName { kActLogits, kActProbs, kActValues };
  struct Layout;     // parameter offset table
  struct ActLayout;  // activation arena offset table
  ActLayout act_layout() const;  // the last forward's
  /// Offset of the residual stream the final layernorm reads.
  std::size_t final_residual(const ActLayout& a) const;
  /// Position of row (b, t) among the last forward's head rows, or -1.
  int head_index(int b, int t) const;
  const float* acts_ptr(ActName which) const;
  /// Transpose every GEMM weight into `wp`: per layer qkv, attproj, fc and
  /// fcproj, then the tied LM head and the value head.
  void pack_weights(std::vector<kern::PackedMat>& wp) const;
  /// Rough flops of the last forward's longest sequence, for the pool.
  std::size_t sequence_work() const;
  /// The forward of sequence b: embedding, every layer, then the final
  /// layernorm, LM head, softmax and value head at its head rows.
  void forward_sequence(const int* tokens, int b);
  /// Backward's first dispatch, for sequence b: zero its gradient rows, then
  /// run the chain from the value and LM heads back to the embedding.
  void backward_sequence(const float* dlogits, const float* dvalues, int b);
  /// Backward's second dispatch: every weight, bias and layernorm gradient.
  void weight_gradients(const int* tokens, const float* dlogits,
                        const float* dvalues);
  /// gen_step's work for active rows rows[i0, i1), every layer.
  void gen_rows(GenState& s, const int* tokens_t, float* logits_out,
                const int* rows, int i0, int i1) const;

  GptConfig cfg_;
  std::vector<float> params_;
  std::vector<float> grads_;
  bool use_ref_kernels_ = false;

  // Activation & activation-gradient arenas for the last forward's real
  // rows (see "training-path" above). Each grows, when it must, to the size
  // of its padded [B, T] batch, so later ragged batches of that shape fit.
  // Growing leaves the new floats for the pool to write.
  using Arena = std::vector<float, DefaultInitAllocator<float>>;
  int B_ = 0, T_ = 0;
  std::vector<int> offs_;   // [B+1]: sequence b is rows [offs_[b], offs_[b+1])
  std::vector<int> hoffs_;  // [B+1]: its head rows are [hoffs_[b], hoffs_[b+1])
  std::vector<std::size_t> att_offs_;  // [B+1]: where its att blocks start
                                       // in each layer's att
  std::vector<int> order_;  // sequences, longest first: the passes' order
  Arena acts_;
  Arena dacts_;
  std::vector<int> head_rows_;    // ascending b*T+t rows of the last forward
  std::vector<int> head_packed_;  // the same rows' packed indices
  std::size_t att_size_ = 0;      // attention-probability floats per layer
  std::vector<kern::PackedMat> wpack_;  // the last forward's packed weights
};

}  // namespace chatfuzz::ml
