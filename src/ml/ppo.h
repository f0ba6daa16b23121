// PPO trainer for the LM policy (training stages 2 and 3 of the paper):
// clipped surrogate objective, per-token KL penalty against a frozen
// reference model (keeps the policy near the pretrained language), value
// head baseline, AdamW updates. Rewards arrive per *sequence* from a
// deterministic reward agent — the disassembler in stage 2 (Eq. 1), the
// Coverage Calculator in stage 3.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/adamw.h"
#include "ml/gpt.h"
#include "ml/sampler.h"
#include "util/rng.h"

namespace chatfuzz::ml {

struct PpoConfig {
  float clip = 0.2f;        // PPO ratio clip epsilon
  float kl_beta = 0.05f;    // per-token KL penalty coefficient
  float vf_coef = 0.5f;     // value-loss weight
  float entropy_coef = 0.f; // entropy bonus weight (0 disables)
  int ppo_epochs = 2;       // optimization passes per batch
  float lr = 1e-4f;
  float reward_scale = 0.05f;     // scales raw environment rewards
  bool whiten_advantages = true;
};

struct PpoStats {
  float mean_env_reward = 0.f;  // raw (unscaled) reward mean
  float mean_kl = 0.f;          // mean logp_old - logp_ref over actions
  float policy_loss = 0.f;
  float value_loss = 0.f;
  float clip_fraction = 0.f;
  float mean_entropy = 0.f;  // policy entropy at action positions (nats)
  std::size_t num_actions = 0;
};

class PpoTrainer {
 public:
  /// `reference` must be a frozen snapshot of the policy (same config);
  /// it is only read.
  PpoTrainer(Gpt& policy, const Gpt& reference, PpoConfig cfg = {});

  /// One PPO update on a batch of generations with their terminal rewards
  /// (rewards[i] corresponds to gens[i]). Sequences with an empty response
  /// or an empty prompt are skipped. The LM and value heads run only at the
  /// action rows.
  ///
  /// `token_rewards`, when non-null, supplies dense per-response-token shaping
  /// (same outer size as gens; inner size = response length). Deterministic
  /// reward agents such as the disassembler decompose per instruction, and
  /// dense attribution makes small-scale PPO converge in far fewer batches
  /// than a single terminal reward.
  PpoStats update(const std::vector<Generation>& gens,
                  const std::vector<double>& rewards,
                  const std::vector<std::vector<float>>* token_rewards = nullptr);

  AdamW& optimizer() { return opt_; }
  const PpoConfig& config() const { return cfg_; }

 private:
  Gpt& policy_;
  const Gpt& ref_;
  PpoConfig cfg_;
  AdamW opt_;
};

}  // namespace chatfuzz::ml
