#include "core/chatfuzz.h"

#include <algorithm>

#include "riscv/disasm.h"

namespace chatfuzz::core {

ChatFuzzGenerator::ChatFuzzGenerator(ChatFuzzConfig cfg)
    : cfg_(cfg),
      policy_(cfg.model, cfg.seed),
      ref_(cfg.model, cfg.seed),
      sampler_([&cfg] {
        ml::SampleConfig s = cfg.sample;
        s.max_new_tokens = cfg.gen_tokens;
        return s;
      }()),
      corpus_(corpus::CorpusConfig{}, cfg.seed + 1),
      rng_(cfg.seed + 2) {
  ref_.copy_params_from(policy_);
  ppo_ = std::make_unique<ml::PpoTrainer>(policy_, ref_, cfg_.ppo);
}

void ChatFuzzGenerator::train_offline() {
  // Stage 1: unsupervised pretraining on the machine-language corpus.
  const std::vector<corpus::Program> data = corpus_.dataset(cfg_.pretrain_samples);
  pretrain_stats_ = pretrain(policy_, data, cfg_.pretrain, rng_);
  // The reference for both PPO stages is the freshly pretrained model.
  ref_.copy_params_from(policy_);
  // Stage 2: disassembler-rewarded cleanup.
  CleanupConfig cc;
  cc.iters = cfg_.cleanup_iters;
  cc.prompt_min = cfg_.prompt_min;
  cc.prompt_max = cfg_.prompt_max;
  cc.ppo = cfg_.ppo;
  cc.sample = sampler_.config();
  cleanup_stats_ = cleanup_stage(policy_, ref_, corpus_, cc, rng_);
  // Stage 3 measures KL against the cleaned-up model.
  ref_.copy_params_from(policy_);
  ppo_ = std::make_unique<ml::PpoTrainer>(policy_, ref_, cfg_.ppo);
}

namespace {

void write_generation(ser::Writer& w, const ml::Generation& g) {
  std::vector<std::uint32_t> prompt(g.prompt.begin(), g.prompt.end());
  std::vector<std::uint32_t> response(g.response.begin(), g.response.end());
  w.vec_u32(prompt);
  w.vec_u32(response);
  w.vec_f32(g.response_logps);
}

/// Reads one pending rollout and accepts it only if PpoTrainer::update can
/// consume it: every token inside the vocabulary (tokens index the
/// embedding table), one logp per response token, and a non-empty prompt
/// (its last position scores the first response token).
bool read_generation(ser::Reader& r, ml::Generation& g, int vocab) {
  const std::vector<std::uint32_t> prompt = r.vec_u32();
  const std::vector<std::uint32_t> response = r.vec_u32();
  g.response_logps = r.vec_f32();
  if (!r.ok()) return false;
  const auto in_vocab = [vocab](std::uint32_t t) {
    return t < static_cast<std::uint32_t>(vocab);
  };
  if (prompt.empty() || g.response_logps.size() != response.size() ||
      !std::all_of(prompt.begin(), prompt.end(), in_vocab) ||
      !std::all_of(response.begin(), response.end(), in_vocab)) {
    return false;
  }
  g.prompt.assign(prompt.begin(), prompt.end());
  g.response.assign(response.begin(), response.end());
  return true;
}

}  // namespace

void ChatFuzzGenerator::save_state(ser::Writer& w) const {
  policy_.save_state(w);
  ref_.save_state(w);
  ppo_->optimizer().save_state(w);
  corpus_.save_state(w);
  ser::write_rng(w, rng_);
  w.u64(pending_gens_.size());
  for (const ml::Generation& g : pending_gens_) write_generation(w, g);
  w.vec_size(pending_prompt_words_);
}

bool ChatFuzzGenerator::restore_state(ser::Reader& r) {
  if (!policy_.restore_state(r) || !ref_.restore_state(r)) return false;
  // The PPO trainer is rebuilt against the restored reference, then its
  // optimizer moments are restored on top (same num_params by construction).
  ppo_ = std::make_unique<ml::PpoTrainer>(policy_, ref_, cfg_.ppo);
  if (!ppo_->optimizer().restore_state(r)) return false;
  if (!corpus_.restore_state(r)) return false;
  if (!ser::read_rng(r, rng_)) return false;
  const std::uint64_t n = r.u64();
  // Each serialized generation is at least three 8-byte length prefixes; a
  // corrupt count larger than that bound must not turn into an allocation.
  if (!r.ok() || n > r.remaining() / 24) return false;
  std::vector<ml::Generation> gens(static_cast<std::size_t>(n));
  for (auto& g : gens) {
    if (!read_generation(r, g, cfg_.model.vocab)) return false;
  }
  std::vector<std::size_t> prompt_words = r.vec_size();
  if (!r.ok()) return false;
  pending_gens_ = std::move(gens);
  pending_prompt_words_ = std::move(prompt_words);
  return true;
}

std::vector<Program> ChatFuzzGenerator::next_batch(std::size_t n) {
  std::vector<std::vector<int>> prompts;
  std::vector<Program> prompt_words;
  prompts.reserve(n);
  prompt_words.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k =
        static_cast<unsigned>(rng_.range(cfg_.prompt_min, cfg_.prompt_max));
    corpus::Program p = corpus_.prompt(k);
    prompts.push_back(tok_.encode(p, /*with_bos=*/true));
    prompt_words.push_back(std::move(p));
  }
  pending_gens_ = sampler_.generate(policy_, prompts, rng_);
  pending_prompt_words_.clear();

  std::vector<Program> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < pending_gens_.size(); ++i) {
    Program test = prompt_words[i];
    const std::vector<std::uint32_t> cont = tok_.decode(pending_gens_[i].response);
    test.insert(test.end(), cont.begin(), cont.end());
    pending_prompt_words_.push_back(prompt_words[i].size());
    batch.push_back(std::move(test));
  }
  return batch;
}

void ChatFuzzGenerator::feedback(const Feedback& fb) {
  if (fb.coverages == nullptr || pending_gens_.empty()) return;
  const std::size_t n = std::min(pending_gens_.size(), fb.coverages->size());
  std::vector<double> rewards(pending_gens_.size(), 0.0);
  std::vector<std::vector<float>> dense(pending_gens_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const cov::TestCoverage& tc = (*fb.coverages)[i];
    double r = cfg_.w_incremental * static_cast<double>(tc.incremental_bins) +
               cfg_.w_standalone * static_cast<double>(tc.standalone_bins);
    if (tc.incremental_bins == 0) r -= cfg_.no_improvement_penalty;
    rewards[i] = r;
    // Keep the language clean (dense per-instruction validity shaping, scaled
    // down so coverage dominates once the language is mostly valid).
    dense[i] = per_token_validity_rewards(pending_gens_[i].response);
    const float v_scale = static_cast<float>(cfg_.invalid_penalty) / 5.f;
    for (float& x : dense[i]) x *= v_scale;
  }
  last_ppo_ = ppo_->update(pending_gens_, rewards, &dense);
  pending_gens_.clear();
}

}  // namespace chatfuzz::core
