// Autoregressive sampling from a Gpt with temperature + top-k, using the
// KV-cache generation path. Deterministic under a fixed Rng.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/gpt.h"
#include "util/rng.h"

namespace chatfuzz::ml {

struct SampleConfig {
  float temperature = 1.0f;
  int top_k = 40;       // 0 = full distribution
  float top_p = 1.0f;   // nucleus sampling: keep the smallest prefix with
                        // this much probability mass (1.0 = disabled)
  int max_new_tokens = 64;
  int min_new_tokens = 0;  // EOS is masked out before this many tokens
  bool stop_at_eos = true;
  int eos_token = 257;  // Tokenizer::kEos
};

/// One generated sequence: prompt + continuation, with per-continuation-token
/// log-probabilities under the sampling model (needed by PPO as logp_old).
struct Generation {
  std::vector<int> prompt;
  std::vector<int> response;          // generated tokens only
  std::vector<float> response_logps;  // logp of each response token
};

class Sampler {
 public:
  explicit Sampler(SampleConfig cfg = {}) : cfg_(cfg) {}
  const SampleConfig& config() const { return cfg_; }

  /// Generate continuations for a batch of prompts (ragged). All prompts
  /// must fit within model ctx together with max_new_tokens. An empty
  /// prompt, or a prompt token or eos_token outside [0, vocab), is a hard
  /// error: each token is fed to the model as an embedding row. Each
  /// step's per-row sampling work runs across the kernel pool and the draws
  /// run in row order, so the tokens and logps are the same at any thread
  /// count.
  std::vector<Generation> generate(const Gpt& model,
                                   const std::vector<std::vector<int>>& prompts,
                                   Rng& rng) const;

 private:
  SampleConfig cfg_;
};

}  // namespace chatfuzz::ml
