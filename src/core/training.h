// The paper's three-step training pipeline (§III-B / §IV-C):
//   stage 1 — unsupervised next-token pretraining on the machine-language
//             corpus (learn the CPU's "language");
//   stage 2 — PPO "model language cleanup" with the *disassembler* as the
//             deterministic reward agent (Eq. 1: f = N_i - 5 * Invalid_i);
//   stage 3 — PPO "model optimization" with coverage-based rewards, run
//             online inside the fuzzing loop (see ChatFuzzGenerator).
#pragma once

#include <cstdint>
#include <vector>

#include "corpus/generator.h"
#include "ml/gpt.h"
#include "ml/ppo.h"
#include "ml/sampler.h"
#include "util/rng.h"

namespace chatfuzz::core {

// ---- Stage 1 ---------------------------------------------------------------
struct PretrainConfig {
  int epochs = 2;
  int batch = 16;
  int seq_len = 96;
  float lr = 3e-4f;
  /// Learning-rate schedule: linear warmup for `warmup_steps`, then constant
  /// or cosine decay to `min_lr_frac * lr` over the full run.
  int warmup_steps = 0;
  bool cosine = false;
  float min_lr_frac = 0.1f;
};

struct PretrainEpochStats {
  float mean_loss = 0.f;
  std::size_t steps = 0;
};

/// Next-token pretraining over a dataset of machine-code samples.
/// Samples are tokenized (BOS ... EOS), concatenated and chunked.
std::vector<PretrainEpochStats> pretrain(ml::Gpt& model,
                                         const std::vector<corpus::Program>& data,
                                         const PretrainConfig& cfg, Rng& rng);

// ---- Stage 2 ---------------------------------------------------------------
struct CleanupConfig {
  int iters = 30;          // the paper trains 30 epochs
  int batch = 16;
  unsigned prompt_min = 2;  // rollouts start from 2-5 dataset instructions
  unsigned prompt_max = 5;
  ml::PpoConfig ppo;
  ml::SampleConfig sample;
};

struct CleanupIterStats {
  float mean_reward = 0.f;   // Eq. 1 reward
  float invalid_rate = 0.f;  // invalid instructions / generated instructions
  float mean_kl = 0.f;
  float value_loss = 0.f;
};

/// PPO refinement with the disassembler as reward agent. `reference` is the
/// frozen stage-1 model.
std::vector<CleanupIterStats> cleanup_stage(ml::Gpt& policy,
                                            const ml::Gpt& reference,
                                            corpus::CorpusGenerator& corpus,
                                            const CleanupConfig& cfg, Rng& rng);

/// Eq. 1 of the paper applied to a generation's decoded response.
double disasm_reward(const std::vector<std::uint32_t>& decoded);

/// Dense per-token decomposition of Eq. 1: the reward of each instruction
/// (+1 valid, -5 invalid) is attributed to the token that completes it.
/// Summing the vector reproduces disasm_reward() up to the empty-generation
/// penalty; dense attribution lets small-scale PPO converge in few batches.
std::vector<float> per_token_validity_rewards(const std::vector<int>& response);

}  // namespace chatfuzz::core
