// ChatFuzz's LLM-based Input Generator (the paper's primary contribution):
// a GPT-2-class policy pretrained on machine code (stage 1), cleaned up with
// disassembler-rewarded PPO (stage 2), and steered online by coverage-
// rewarded PPO while fuzzing (stage 3). Each next_batch() call samples
// data/control-flow-entangled instruction sequences; each feedback() call
// turns the Coverage Calculator's values into rewards and performs a PPO
// update — the fuzzing loop of Fig. 1a.
#pragma once

#include <memory>

#include "core/generator.h"
#include "core/training.h"
#include "corpus/generator.h"
#include "ml/gpt.h"
#include "ml/ppo.h"
#include "ml/sampler.h"
#include "ml/tokenizer.h"
#include "util/rng.h"

namespace chatfuzz::core {

struct ChatFuzzConfig {
  ml::GptConfig model = ml::GptConfig::small();
  unsigned prompt_min = 2;   // paper: rollouts start from 2-5 instructions
  unsigned prompt_max = 5;
  int gen_tokens = 72;       // response budget (~18 instructions)

  // Offline training (stages 1-2) before the campaign.
  std::size_t pretrain_samples = 1500;
  PretrainConfig pretrain;
  int cleanup_iters = 8;

  // Stage-3 reward shaping (§IV-C3): bonus for incremental coverage,
  // small stand-alone term, penalty when a generation improves nothing,
  // and a validity term so the language stays clean.
  double w_incremental = 3.0;
  double w_standalone = 0.02;
  double no_improvement_penalty = 1.0;
  double invalid_penalty = 2.0;

  ml::PpoConfig ppo{.lr = 3e-4f};
  ml::SampleConfig sample{.temperature = 0.85f, .top_k = 20, .min_new_tokens = 48};
  std::uint64_t seed = 7;
};

class ChatFuzzGenerator final : public InputGenerator {
 public:
  explicit ChatFuzzGenerator(ChatFuzzConfig cfg = {});

  /// Run stages 1 and 2 (pretraining + disassembler cleanup). Call once
  /// before the campaign; next_batch() works either way but an untrained
  /// model generates noise.
  void train_offline();

  std::string name() const override { return "ChatFuzz"; }
  std::vector<Program> next_batch(std::size_t n) override;
  void feedback(const Feedback& fb) override;

  /// Full mid-campaign state: policy + frozen reference weights, PPO
  /// optimizer moments, corpus stream, harness RNG and in-flight rollouts.
  bool supports_snapshot() const override { return true; }
  void save_state(ser::Writer& w) const override;
  bool restore_state(ser::Reader& r) override;

  ml::Gpt& model() { return policy_; }
  const std::vector<PretrainEpochStats>& pretrain_stats() const {
    return pretrain_stats_;
  }
  const std::vector<CleanupIterStats>& cleanup_stats() const {
    return cleanup_stats_;
  }
  /// Stage-3 PPO statistics of the most recent feedback() update.
  const ml::PpoStats& last_ppo_stats() const { return last_ppo_; }

 private:
  ChatFuzzConfig cfg_;
  ml::Gpt policy_;
  ml::Gpt ref_;
  ml::Tokenizer tok_;
  ml::Sampler sampler_;
  std::unique_ptr<ml::PpoTrainer> ppo_;
  corpus::CorpusGenerator corpus_;
  Rng rng_;

  // Rollouts of the batch awaiting feedback.
  std::vector<ml::Generation> pending_gens_;
  std::vector<std::size_t> pending_prompt_words_;
  ml::PpoStats last_ppo_;
  std::vector<PretrainEpochStats> pretrain_stats_;
  std::vector<CleanupIterStats> cleanup_stats_;
};

}  // namespace chatfuzz::core
