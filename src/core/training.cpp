#include "core/training.h"

#include <algorithm>

#include "ml/adamw.h"
#include "ml/schedule.h"
#include "ml/tokenizer.h"
#include "riscv/decode.h"
#include "riscv/disasm.h"

namespace chatfuzz::core {

std::vector<PretrainEpochStats> pretrain(ml::Gpt& model,
                                         const std::vector<corpus::Program>& data,
                                         const PretrainConfig& cfg, Rng& rng) {
  ml::Tokenizer tok;
  // One training row per sample, aligned so BOS sits at position 0. This
  // keeps the byte phase within each instruction a pure function of the
  // position (byte j of instruction m is at 1 + 4m + j), which the position
  // embedding learns directly — and it matches the generation-time layout,
  // where every rollout also starts with BOS at position 0.
  std::vector<std::vector<int>> rows;
  rows.reserve(data.size());
  for (const corpus::Program& p : data) {
    rows.push_back(tok.encode(p, /*with_bos=*/true, /*with_eos=*/true));
  }
  std::vector<PretrainEpochStats> out;
  if (rows.empty()) return out;

  const int B = cfg.batch;
  const int T = std::min(cfg.seq_len, model.config().ctx);
  ml::AdamW opt(model.num_params(), ml::AdamWConfig{cfg.lr});
  std::vector<int> inputs(static_cast<std::size_t>(B) * T);
  std::vector<int> targets(static_cast<std::size_t>(B) * T);
  std::vector<int> head_rows;  // rows with a target: the only ones scored
  std::vector<int> lengths(B);  // tokens per sample; the rest is padding

  const std::size_t steps_per_epoch =
      std::max<std::size_t>(1, rows.size() / static_cast<std::size_t>(B));
  ml::LrSchedule sched;
  sched.kind = cfg.cosine ? ml::LrSchedule::Kind::kCosine
                          : ml::LrSchedule::Kind::kConstant;
  sched.base_lr = cfg.lr;
  sched.warmup_steps = cfg.warmup_steps;
  sched.total_steps = static_cast<int>(steps_per_epoch) * cfg.epochs;
  sched.min_lr = cfg.min_lr_frac * cfg.lr;
  int global_step = 0;
  for (int e = 0; e < cfg.epochs; ++e) {
    PretrainEpochStats stats;
    double loss_sum = 0.0;
    for (std::size_t s = 0; s < steps_per_epoch; ++s) {
      for (int b = 0; b < B; ++b) {
        const std::vector<int>& row = rows[rng.below(rows.size())];
        lengths[b] = std::min(static_cast<int>(row.size()), T);
        for (int t = 0; t < T; ++t) {
          const std::size_t idx = static_cast<std::size_t>(t);
          inputs[b * T + t] =
              idx < row.size() ? row[idx] : ml::Tokenizer::kPad;
          targets[b * T + t] =
              idx + 1 < row.size() ? row[idx + 1] : -1;  // -1 = ignore
        }
      }
      head_rows.clear();
      for (int n = 0; n < B * T; ++n) {
        if (targets[n] >= 0) head_rows.push_back(n);
      }
      model.forward(inputs.data(), B, T, head_rows, lengths);
      model.zero_grad();
      loss_sum += model.backward_lm(inputs.data(), targets.data(), B, T);
      opt.set_lr(sched.at(global_step++));
      opt.step(model.params(), model.grads());
      ++stats.steps;
    }
    stats.mean_loss = static_cast<float>(loss_sum / static_cast<double>(stats.steps));
    out.push_back(stats);
  }
  return out;
}

double disasm_reward(const std::vector<std::uint32_t>& decoded) {
  const riscv::DisasmAudit a = riscv::audit(decoded);
  if (a.total == 0) return -5.0;  // degenerate empty generation
  return a.reward();
}

std::vector<float> per_token_validity_rewards(const std::vector<int>& response) {
  std::vector<float> out(response.size(), 0.f);
  std::uint32_t word = 0;
  int have = 0;
  for (std::size_t i = 0; i < response.size(); ++i) {
    const int t = response[i];
    if (t == ml::Tokenizer::kEos) break;
    if (t < 0 || t >= ml::Tokenizer::kByteVocab) continue;
    word |= static_cast<std::uint32_t>(t) << (8 * have);
    if (++have == ml::Tokenizer::kTokensPerInstr) {
      out[i] = riscv::is_valid(word) ? 1.f : -5.f;
      word = 0;
      have = 0;
    }
  }
  return out;
}

std::vector<CleanupIterStats> cleanup_stage(ml::Gpt& policy,
                                            const ml::Gpt& reference,
                                            corpus::CorpusGenerator& corpus,
                                            const CleanupConfig& cfg, Rng& rng) {
  ml::Tokenizer tok;
  ml::Sampler sampler(cfg.sample);
  ml::PpoTrainer ppo(policy, reference, cfg.ppo);

  std::vector<CleanupIterStats> out;
  for (int iter = 0; iter < cfg.iters; ++iter) {
    std::vector<std::vector<int>> prompts;
    prompts.reserve(cfg.batch);
    for (int b = 0; b < cfg.batch; ++b) {
      const auto k = static_cast<unsigned>(
          rng.range(cfg.prompt_min, cfg.prompt_max));
      prompts.push_back(tok.encode(corpus.prompt(k), /*with_bos=*/true));
    }
    std::vector<ml::Generation> gens = sampler.generate(policy, prompts, rng);

    std::vector<double> rewards(gens.size(), 0.0);
    std::vector<std::vector<float>> dense(gens.size());
    std::size_t total_instr = 0, total_invalid = 0;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      const std::vector<std::uint32_t> decoded = tok.decode(gens[i].response);
      rewards[i] = disasm_reward(decoded);
      dense[i] = per_token_validity_rewards(gens[i].response);
      const riscv::DisasmAudit a = riscv::audit(decoded);
      total_instr += a.total;
      total_invalid += a.invalid;
    }
    // Terminal reward would double-count what the dense decomposition
    // already attributes, so pass zeros as terminal and the dense vector for
    // shaping (their sum equals Eq. 1).
    const std::vector<double> zeros(gens.size(), 0.0);
    const ml::PpoStats ps = ppo.update(gens, zeros, &dense);
    CleanupIterStats st;
    double rsum = 0.0;
    for (double r : rewards) rsum += r;
    st.mean_reward = static_cast<float>(rsum / static_cast<double>(rewards.size()));
    st.invalid_rate = total_instr > 0
                          ? static_cast<float>(total_invalid) /
                                static_cast<float>(total_instr)
                          : 1.f;
    st.mean_kl = ps.mean_kl;
    st.value_loss = ps.value_loss;
    out.push_back(st);
  }
  return out;
}

}  // namespace chatfuzz::core
