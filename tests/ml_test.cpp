// ML subsystem tests: tokenizer round-trips, finite-difference gradient
// checks on the hand-written backprop, LM training convergence, KV-cache
// generation vs. full forward consistency, sampler determinism, AdamW, a
// PPO sanity task (policy learns to prefer a rewarded token), and bit
// identity of the training path across kernel thread counts and between
// the action-row and all-rows LM head.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "ml/adamw.h"
#include "ml/gpt.h"
#include "ml/kernels.h"
#include "ml/ppo.h"
#include "ml/sampler.h"
#include "ml/tokenizer.h"
#include "riscv/encode.h"
#include "util/rng.h"

namespace chatfuzz::ml {
namespace {

// ---- tokenizer ---------------------------------------------------------------

TEST(Tokenizer, RoundTripsPrograms) {
  Tokenizer tok;
  const std::vector<std::uint32_t> prog = {
      riscv::enc_i(riscv::Opcode::kAddi, 1, 0, 5),
      riscv::enc_r(riscv::Opcode::kAdd, 2, 1, 1), 0xdeadbeefu};
  const auto tokens = tok.encode(prog, true, true);
  EXPECT_EQ(tokens.size(), prog.size() * 4 + 2);
  EXPECT_EQ(tokens.front(), Tokenizer::kBos);
  EXPECT_EQ(tokens.back(), Tokenizer::kEos);
  EXPECT_EQ(tok.decode(tokens), prog);
}

TEST(Tokenizer, DecodeStopsAtEos) {
  Tokenizer tok;
  std::vector<int> tokens = {Tokenizer::kBos, 1, 2, 3, 4, Tokenizer::kEos,
                             5, 6, 7, 8};
  const auto words = tok.decode(tokens);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0x04030201u);
}

TEST(Tokenizer, IncompleteTrailingBytesDropped) {
  Tokenizer tok;
  std::vector<int> tokens = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(tok.decode(tokens).size(), 1u);
}

TEST(Tokenizer, AllTokensWithinVocab) {
  Tokenizer tok;
  const auto tokens = tok.encode(std::vector<std::uint32_t>{0xffffffffu}, true, true);
  for (int t : tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, Tokenizer::kVocabSize);
  }
}

// ---- gradient check -----------------------------------------------------------

float lm_loss_only(Gpt& model, const int* tokens, const int* targets, int B,
                   int T) {
  model.forward(tokens, B, T);
  const float* probs = model.probs();
  const int V = model.config().vocab;
  float loss = 0.f;
  int count = 0;
  for (int n = 0; n < B * T; ++n) {
    if (targets[n] < 0) continue;
    loss += -std::log(probs[static_cast<std::size_t>(n) * V + targets[n]] + 1e-10f);
    ++count;
  }
  return loss / static_cast<float>(count);
}

TEST(GradCheck, BackwardMatchesFiniteDifferences) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 123);
  Rng rng(9);
  const int B = 2, T = 8;
  std::vector<int> tokens(B * T), targets(B * T);
  for (auto& t : tokens) t = static_cast<int>(rng.below(cfg.vocab));
  for (auto& t : targets) t = static_cast<int>(rng.below(cfg.vocab));
  targets[3] = -1;  // exercise the ignore path

  model.forward(tokens.data(), B, T);
  model.zero_grad();
  model.backward_lm(tokens.data(), targets.data(), B, T);
  const std::vector<float> grads = model.grads();

  // Probe a spread of parameter indices; double-sided differences.
  int checked = 0;
  for (int probe = 0; probe < 300 && checked < 25; ++probe) {
    const std::size_t idx = rng.below(model.num_params());
    if (std::fabs(grads[idx]) < 1e-4f) continue;  // numerically fragile
    const float eps = 1e-2f;
    const float orig = model.params()[idx];
    model.params()[idx] = orig + eps;
    const float lp = lm_loss_only(model, tokens.data(), targets.data(), B, T);
    model.params()[idx] = orig - eps;
    const float lm = lm_loss_only(model, tokens.data(), targets.data(), B, T);
    model.params()[idx] = orig;
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(numeric, grads[idx],
                std::max(2e-2f, 0.15f * std::fabs(grads[idx])))
        << "param index " << idx;
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(GradCheck, ValueHeadGradient) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 5);
  Rng rng(11);
  const int B = 1, T = 4;
  std::vector<int> tokens(B * T);
  for (auto& t : tokens) t = static_cast<int>(rng.below(cfg.vocab));
  model.forward(tokens.data(), B, T);
  // Loss = value at position 2 (dvalue = 1 there).
  std::vector<float> dlogits(static_cast<std::size_t>(B) * T * cfg.vocab, 0.f);
  std::vector<float> dvalues(static_cast<std::size_t>(B) * T, 0.f);
  dvalues[2] = 1.f;
  model.zero_grad();
  model.backward_from(tokens.data(), dlogits.data(), dvalues.data(), B, T);
  const std::vector<float> grads = model.grads();

  auto value_at_2 = [&]() {
    model.forward(tokens.data(), B, T);
    return model.values()[2];
  };
  Rng probe_rng(17);
  int checked = 0;
  for (int probe = 0; probe < 200 && checked < 10; ++probe) {
    const std::size_t idx = probe_rng.below(model.num_params());
    if (std::fabs(grads[idx]) < 1e-4f) continue;
    const float eps = 1e-2f;
    const float orig = model.params()[idx];
    model.params()[idx] = orig + eps;
    const float vp = value_at_2();
    model.params()[idx] = orig - eps;
    const float vm = value_at_2();
    model.params()[idx] = orig;
    const float numeric = (vp - vm) / (2 * eps);
    EXPECT_NEAR(numeric, grads[idx],
                std::max(2e-2f, 0.15f * std::fabs(grads[idx])));
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

// ---- training convergence -------------------------------------------------------

TEST(Training, LossDecreasesOnFixedBatch) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 3);
  AdamW opt(model.num_params(), AdamWConfig{1e-2f});
  Rng rng(4);
  const int B = 4, T = 16;
  std::vector<int> tokens(B * T), targets(B * T);
  for (int n = 0; n < B * T; ++n) {
    tokens[n] = static_cast<int>(rng.below(8));   // tiny sub-vocabulary
    targets[n] = (tokens[n] + 1) % 8;             // deterministic mapping
  }
  float first = 0.f, last = 0.f;
  for (int step = 0; step < 60; ++step) {
    model.forward(tokens.data(), B, T);
    model.zero_grad();
    const float loss = model.backward_lm(tokens.data(), targets.data(), B, T);
    opt.step(model.params(), model.grads());
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.2f) << "first=" << first << " last=" << last;
}

// ---- KV-cache generation consistency ---------------------------------------------

TEST(Generation, IncrementalMatchesFullForward) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 21);
  Rng rng(2);
  const int T = 12;
  std::vector<int> seq(T);
  for (auto& t : seq) t = static_cast<int>(rng.below(cfg.vocab));

  // Full forward logits at the last position...
  model.forward(seq.data(), 1, T);
  std::vector<float> full(model.config().vocab);
  const float* logits = model.logits();
  for (int v = 0; v < cfg.vocab; ++v) {
    full[v] = logits[static_cast<std::size_t>(T - 1) * cfg.vocab + v];
  }
  // ...must match the KV-cache path fed token by token.
  Gpt::GenState st = model.gen_begin(1);
  std::vector<float> step_logits(cfg.vocab);
  for (int t = 0; t < T; ++t) {
    model.gen_step(st, &seq[t], step_logits.data());
  }
  for (int v = 0; v < cfg.vocab; ++v) {
    EXPECT_NEAR(step_logits[v], full[v], 1e-3f) << v;
  }
}

TEST(Generation, BatchLanesAreIndependent) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 21);
  const int B = 3;
  Gpt::GenState st = model.gen_begin(B);
  std::vector<int> toks = {5, 9, 13};
  std::vector<float> logits(static_cast<std::size_t>(B) * cfg.vocab);
  model.gen_step(st, toks.data(), logits.data());
  // Lane 1 must equal a single-lane run with the same token.
  Gpt::GenState solo = model.gen_begin(1);
  std::vector<float> solo_logits(cfg.vocab);
  model.gen_step(solo, &toks[1], solo_logits.data());
  for (int v = 0; v < cfg.vocab; ++v) {
    EXPECT_NEAR(logits[cfg.vocab + v], solo_logits[v], 1e-4f);
  }
}

// ---- sampler ---------------------------------------------------------------------

TEST(Sampler, DeterministicUnderFixedSeed) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.max_new_tokens = 12;
  sc.stop_at_eos = false;  // every lane runs to max_new_tokens
  sc.eos_token = cfg.vocab - 1;  // still fed to finished lanes
  Sampler sampler(sc);
  Rng r1(5), r2(5);
  const std::vector<std::vector<int>> prompts = {{1, 2, 3}, {4}};
  const auto g1 = sampler.generate(model, prompts, r1);
  const auto g2 = sampler.generate(model, prompts, r2);
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_EQ(g1[i].response, g2[i].response);
  }
}

TEST(Sampler, RespectsMaxNewTokens) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.max_new_tokens = 7;
  sc.stop_at_eos = false;  // every lane runs to max_new_tokens
  sc.eos_token = cfg.vocab - 1;  // still fed to finished lanes
  Sampler sampler(sc);
  Rng rng(5);
  const auto gens = sampler.generate(model, {{1, 2}}, rng);
  EXPECT_EQ(gens[0].response.size(), 7u);
  EXPECT_EQ(gens[0].response_logps.size(), 7u);
}

TEST(Sampler, MinNewTokensMasksEos) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.max_new_tokens = 20;
  sc.min_new_tokens = 20;
  sc.eos_token = 7;  // a token the tiny model would otherwise emit
  sc.top_k = 0;
  Sampler sampler(sc);
  Rng rng(5);
  const auto gens = sampler.generate(model, {{1}}, rng);
  ASSERT_EQ(gens[0].response.size(), 20u);
  for (int t : gens[0].response) EXPECT_NE(t, 7);
}

TEST(Sampler, LogpsAreSane) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.max_new_tokens = 5;
  sc.stop_at_eos = false;  // every lane runs to max_new_tokens
  sc.eos_token = cfg.vocab - 1;  // still fed to finished lanes
  Sampler sampler(sc);
  Rng rng(5);
  const auto gens = sampler.generate(model, {{1, 2, 3}}, rng);
  for (float lp : gens[0].response_logps) {
    EXPECT_LE(lp, 0.f);
    EXPECT_GT(lp, -20.f);
  }
}

TEST(SamplerDeathTest, RejectsTokensOutsideTheVocabulary) {
  // Each of these would be fed to gen_step as an embedding row index.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const GptConfig cfg = GptConfig::tiny();
  const Gpt model(cfg, 30);
  SampleConfig sc;
  sc.eos_token = cfg.vocab;
  Rng rng(5);
  EXPECT_DEATH(Sampler(sc).generate(model, {{1}}, rng),
               "eos_token 64 is outside the vocabulary");
  sc.eos_token = -1;
  EXPECT_DEATH(Sampler(sc).generate(model, {{1}}, rng), "eos_token -1");
  sc.eos_token = 0;
  EXPECT_DEATH(Sampler(sc).generate(model, {{1, cfg.vocab}}, rng),
               "prompt token 64 is outside the vocabulary");
  EXPECT_DEATH(Sampler(sc).generate(model, {{-2}}, rng), "prompt token -2");
  EXPECT_DEATH(Sampler(sc).generate(model, {{1}, {}}, rng), "empty prompt");
}

TEST(GptDeathTest, EntryPointsCheckTheirPreconditionsInEveryBuild) {
  // Unchecked, each of these reads or writes outside an activation, cache
  // or embedding buffer.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const GptConfig cfg = GptConfig::tiny();  // vocab 64, ctx 32
  Gpt model(cfg, 31);
  std::vector<int> toks(static_cast<std::size_t>(cfg.ctx) + 1, 1);
  EXPECT_DEATH(model.forward(toks.data(), 1, cfg.ctx + 1),
               "Gpt::forward: T=33 exceeds ctx=32");
  toks[3] = cfg.vocab;
  EXPECT_DEATH(model.forward(toks.data(), 2, 4),
               "Gpt::forward: token 64 at 3 is outside the vocabulary");
  toks[3] = -1;
  EXPECT_DEATH(model.forward(toks.data(), 2, 4), "token -1 at 3");
  toks[3] = 1;

  EXPECT_DEATH(model.forward(toks.data(), 2, 4, {1, 5}, {4, 5}),
               "Gpt::forward: length 5 of sequence 1 is outside .0, T=4.");
  // Flat row 5 is (1, 1), past sequence 1's one real token.
  EXPECT_DEATH(model.forward(toks.data(), 2, 4, {1, 5}, {4, 1}),
               "Gpt::forward: head row 5 is padding");
  model.forward(toks.data(), 2, 4, {1, 5});
  EXPECT_DEATH(model.logprob(0, 0, 1),
               "Gpt::logprob: .b=0, t=0. is not a head row");
  // Flat row 0 * 4 + 5 is the head row (1, 1), but t = 5 is past T = 4.
  EXPECT_DEATH(model.logprob(0, 5, 1), "is not a head row");
  EXPECT_DEATH(model.logprob(1, 1, cfg.vocab),
               "Gpt::logprob: token 64 is outside the vocabulary");
  const std::vector<float> dlogits(2 * static_cast<std::size_t>(cfg.vocab));
  EXPECT_DEATH(model.backward_from(toks.data(), dlogits.data(), nullptr, 1, 8),
               "Gpt::backward_from: .B=1, T=8. is not the last forward's");

  const Gpt wider(GptConfig{64, 32, 1, 2, 32}, 31);
  EXPECT_DEATH(model.copy_params_from(wider),
               "Gpt::copy_params_from: config mismatch");

  EXPECT_DEATH(model.gen_begin(0), "Gpt::gen_begin: B=0 must be positive");
  Gpt::GenState st = model.gen_begin(2);
  std::vector<float> logits(2 * static_cast<std::size_t>(cfg.vocab));
  const int bad[2] = {1, cfg.vocab};
  EXPECT_DEATH(model.gen_step(st, bad, logits.data()),
               "Gpt::gen_step: token 64 at 1 is outside the vocabulary");
  const int ok[2] = {1, 2};
  Gpt::GenState part = model.gen_begin(2);
  model.gen_step(part, ok, logits.data(), {1});
  EXPECT_DEATH(model.gen_step(part, ok, logits.data(), {1, 0}),
               "Gpt::gen_step: active rows must be strictly ascending");
  // Row 0 missed position 0 of its cache.
  EXPECT_DEATH(model.gen_step(part, ok, logits.data()),
               "Gpt::gen_step: row 0 was left out of an earlier step");
  for (int t = 0; t < cfg.ctx; ++t) model.gen_step(st, ok, logits.data());
  EXPECT_DEATH(model.gen_step(st, ok, logits.data()),
               "Gpt::gen_step: position 32 is past ctx=32");
}

// ---- AdamW -----------------------------------------------------------------------

TEST(AdamWOpt, ConvergesOnQuadratic) {
  // min (x - 3)^2 via AdamW on a 1-element "model".
  std::vector<float> params = {0.f};
  std::vector<float> grads = {0.f};
  AdamW opt(1, AdamWConfig{0.1f, 0.9f, 0.999f, 1e-8f, 0.f, 0.f});
  for (int i = 0; i < 300; ++i) {
    grads[0] = 2.f * (params[0] - 3.f);
    opt.step(params, grads);
  }
  EXPECT_NEAR(params[0], 3.f, 0.05f);
}

TEST(AdamWOpt, GradClipBoundsNorm) {
  std::vector<float> params = {0.f, 0.f};
  std::vector<float> grads = {3e6f, 4e6f};
  AdamW opt(2, AdamWConfig{1.f, 0.9f, 0.999f, 1e-8f, 0.f, 1.0f});
  opt.step(params, grads);
  const float norm = std::sqrt(grads[0] * grads[0] + grads[1] * grads[1]);
  EXPECT_NEAR(norm, 1.0f, 1e-3f);
}

TEST(AdamWOpt, ClippedStepsAreBitIdenticalAtAnyThreadCount) {
  // The clip scale and the update run on the kernel pool; the norm is one
  // serial sum, so params and moments keep their bits at any thread count.
  const std::size_t n = 100003;
  Rng rng(4);
  std::vector<std::vector<float>> grads(3, std::vector<float>(n));
  for (auto& g : grads) {
    // A norm of about 90, so the clip is active.
    for (float& x : g) x = static_cast<float>(rng.uniform()) - 0.5f;
  }
  const int saved = kern::num_threads();
  std::vector<std::vector<float>> params;
  std::vector<std::string> moments;
  for (const int nt : {1, 4}) {
    kern::set_num_threads(nt);
    std::vector<float> p(n, 0.25f);
    AdamW opt(n, AdamWConfig{1e-2f});
    for (const auto& g : grads) {
      std::vector<float> gi = g;
      opt.step(p, gi);
    }
    params.push_back(p);
    ser::Writer w;
    opt.save_state(w);
    moments.push_back(w.buffer());
  }
  kern::set_num_threads(saved);
  EXPECT_EQ(0, std::memcmp(params[0].data(), params[1].data(),
                           n * sizeof(float)));
  EXPECT_EQ(moments[0], moments[1]);
}

// ---- PPO sanity -------------------------------------------------------------------

TEST(Ppo, PolicyLearnsRewardedToken) {
  // Dense per-token reward: +1 for every response token equal to `kLucky`,
  // -0.1 otherwise. PPO must substantially raise the sampling probability of
  // the lucky token.
  constexpr int kLucky = 11;
  const GptConfig cfg = GptConfig::tiny();
  Gpt policy(cfg, 77);
  Gpt ref(cfg, 77);
  ref.copy_params_from(policy);
  PpoConfig pc;
  pc.lr = 3e-3f;
  pc.kl_beta = 0.0f;  // pure reward for this sanity check
  pc.reward_scale = 1.0f;
  pc.ppo_epochs = 2;
  PpoTrainer ppo(policy, ref, pc);
  SampleConfig sc;
  sc.max_new_tokens = 6;
  sc.stop_at_eos = false;  // every lane runs to max_new_tokens
  sc.eos_token = cfg.vocab - 1;  // still fed to finished lanes
  sc.top_k = 0;
  Sampler sampler(sc);
  Rng rng(8);
  const std::vector<std::vector<int>> prompts(16, std::vector<int>{1, 2});

  auto lucky_prob = [&] {
    std::vector<int> toks = {1, 2};
    policy.forward(toks.data(), 1, 2);
    return std::exp(policy.logprob(0, 1, kLucky));
  };
  const float before = lucky_prob();
  for (int iter = 0; iter < 60; ++iter) {
    const auto gens = sampler.generate(policy, prompts, rng);
    std::vector<double> rewards(gens.size(), 0.0);
    std::vector<std::vector<float>> dense(gens.size());
    for (std::size_t i = 0; i < gens.size(); ++i) {
      for (int t : gens[i].response) {
        dense[i].push_back(t == kLucky ? 1.f : -0.1f);
      }
    }
    ppo.update(gens, rewards, &dense);
  }
  const float after = lucky_prob();
  EXPECT_GT(after, before * 3.f) << "before=" << before << " after=" << after;
  EXPECT_GT(after, 0.2f);
}

TEST(Ppo, StatsArePopulated) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt policy(cfg, 7), ref(cfg, 7);
  ref.copy_params_from(policy);
  PpoTrainer ppo(policy, ref, PpoConfig{});
  SampleConfig sc;
  sc.max_new_tokens = 6;
  sc.stop_at_eos = false;  // every lane runs to max_new_tokens
  sc.eos_token = cfg.vocab - 1;  // still fed to finished lanes
  Sampler sampler(sc);
  Rng rng(3);
  const auto gens = sampler.generate(policy, {{1}, {2}}, rng);
  const PpoStats st = ppo.update(gens, {1.0, -1.0});
  EXPECT_EQ(st.num_actions, 12u);
  EXPECT_FLOAT_EQ(st.mean_env_reward, 0.f);
  EXPECT_GT(st.value_loss, 0.f);
}

TEST(Ppo, EmptyResponsesAreSkipped) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt policy(cfg, 7), ref(cfg, 7);
  ref.copy_params_from(policy);
  PpoTrainer ppo(policy, ref, PpoConfig{});
  Generation g;
  g.prompt = {1, 2};
  const PpoStats st = ppo.update({g}, {1.0});
  EXPECT_EQ(st.num_actions, 0u);
}

// ---- thread-count and head-row bit identity -------------------------------

namespace {

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

/// Restores the kernel thread count when a test ends.
struct ThreadCountGuard {
  int saved = kern::num_threads();
  ~ThreadCountGuard() { kern::set_num_threads(saved); }
};

struct TrainingBatch {
  int B = 16, T = 48;
  std::vector<int> tokens, targets;
  std::vector<float> dlogits, dvalues;
};

TrainingBatch make_training_batch(const GptConfig& cfg, std::uint64_t seed) {
  TrainingBatch tb;
  Rng rng(seed);
  const std::size_t BT = static_cast<std::size_t>(tb.B) * tb.T;
  for (std::size_t n = 0; n < BT; ++n) {
    tb.tokens.push_back(static_cast<int>(rng.below(cfg.vocab)));
    tb.targets.push_back(
        rng.below(4) == 0 ? -1 : static_cast<int>(rng.below(cfg.vocab)));
  }
  for (std::size_t i = 0; i < BT * cfg.vocab; ++i) {
    tb.dlogits.push_back(static_cast<float>(rng.uniform()) - 0.5f);
  }
  for (std::size_t n = 0; n < BT; ++n) {
    tb.dvalues.push_back(static_cast<float>(rng.uniform()) - 0.5f);
  }
  return tb;
}

}  // namespace

TEST(GptThreads, TrainingPathIsBitIdenticalAtAnyThreadCount) {
  // Big enough that every pooled kernel (attention, layernorm rows and
  // channels, softmax, GELU, matmuls) actually splits at 2-4 threads.
  const GptConfig cfg = GptConfig::small();
  const TrainingBatch tb = make_training_batch(cfg, 41);
  const ThreadCountGuard guard;
  struct Out {
    std::vector<float> logits, probs, values, grads_from, grads_lm;
    float loss = 0.f;
  };
  std::vector<Out> outs;
  for (const int nt : {1, 2, 3, 4}) {
    kern::set_num_threads(nt);
    Gpt model(cfg, 5);
    Out o;
    model.forward(tb.tokens.data(), tb.B, tb.T);
    const std::size_t BT = static_cast<std::size_t>(tb.B) * tb.T;
    o.logits.assign(model.logits(), model.logits() + BT * cfg.vocab);
    o.probs.assign(model.probs(), model.probs() + BT * cfg.vocab);
    o.values.assign(model.values(), model.values() + BT);
    model.zero_grad();
    model.backward_from(tb.tokens.data(), tb.dlogits.data(), tb.dvalues.data(),
                        tb.B, tb.T);
    o.grads_from = model.grads();
    model.zero_grad();
    o.loss = model.backward_lm(tb.tokens.data(), tb.targets.data(), tb.B, tb.T);
    o.grads_lm = model.grads();
    outs.push_back(std::move(o));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    SCOPED_TRACE("threads=" + std::to_string(i + 1));
    EXPECT_TRUE(same_bits(outs[i].logits, outs[0].logits));
    EXPECT_TRUE(same_bits(outs[i].probs, outs[0].probs));
    EXPECT_TRUE(same_bits(outs[i].values, outs[0].values));
    EXPECT_TRUE(same_bits(outs[i].grads_from, outs[0].grads_from));
    EXPECT_TRUE(same_bits(outs[i].grads_lm, outs[0].grads_lm));
    EXPECT_TRUE(same_bits(&outs[i].loss, &outs[0].loss, 1));
  }
}

TEST(GptThreads, HeadRowsMatchTheAllRowsForwardAndBackward) {
  const GptConfig cfg = GptConfig::small();
  const TrainingBatch tb = make_training_batch(cfg, 42);
  const int V = cfg.vocab;
  std::vector<int> rows;  // the rows that carry a target
  for (int n = 0; n < tb.B * tb.T; ++n) {
    if (tb.targets[n] >= 0) rows.push_back(n);
  }
  const std::size_t R = rows.size();
  Gpt full(cfg, 6), head(cfg, 6);

  full.forward(tb.tokens.data(), tb.B, tb.T);
  head.forward(tb.tokens.data(), tb.B, tb.T, rows);
  for (std::size_t r = 0; r < R; ++r) {
    const std::size_t n = static_cast<std::size_t>(rows[r]);
    ASSERT_TRUE(same_bits(head.logits() + r * V, full.logits() + n * V, V));
    ASSERT_TRUE(same_bits(head.probs() + r * V, full.probs() + n * V, V));
    ASSERT_TRUE(same_bits(head.values() + r, full.values() + n, 1));
    const int b = rows[r] / tb.T, t = rows[r] % tb.T;
    EXPECT_EQ(head.logprob(b, t, 3), full.logprob(b, t, 3));
  }

  // backward_from: packed gradients at the head rows == full-size gradients
  // that are zero everywhere else.
  std::vector<float> dl_full(tb.dlogits.size(), 0.f);
  std::vector<float> dv_full(tb.dvalues.size(), 0.f);
  std::vector<float> dl_head(R * V), dv_head(R);
  for (std::size_t r = 0; r < R; ++r) {
    const std::size_t n = static_cast<std::size_t>(rows[r]);
    std::copy_n(tb.dlogits.begin() + n * V, V, dl_full.begin() + n * V);
    std::copy_n(tb.dlogits.begin() + n * V, V, dl_head.begin() + r * V);
    dv_full[n] = dv_head[r] = tb.dvalues[n];
  }
  full.zero_grad();
  head.zero_grad();
  full.backward_from(tb.tokens.data(), dl_full.data(), dv_full.data(), tb.B,
                     tb.T);
  head.backward_from(tb.tokens.data(), dl_head.data(), dv_head.data(), tb.B,
                     tb.T);
  EXPECT_TRUE(same_bits(head.grads(), full.grads()));

  // backward_lm: scoring only the target rows gives the same loss and grads.
  full.zero_grad();
  head.zero_grad();
  const float lf =
      full.backward_lm(tb.tokens.data(), tb.targets.data(), tb.B, tb.T);
  const float lh =
      head.backward_lm(tb.tokens.data(), tb.targets.data(), tb.B, tb.T);
  EXPECT_TRUE(same_bits(&lh, &lf, 1));
  EXPECT_TRUE(same_bits(head.grads(), full.grads()));
}

namespace {

/// How a padded batch is run: head rows at the real rows, every row a head
/// row, or the ragged forward over the real rows only.
enum class PadMode { kHeadRows, kAllRows, kRagged };

struct PadOut {
  std::vector<float> logits, probs, values, grads_from, grads_lm;
  float loss = 0.f;
};

/// Runs `lens` sequences (real tokens from `seqs`) padded to width Tp with
/// token 0, and returns the real rows' head outputs in (b, t) order and the
/// gradients of backward_from and backward_lm.
PadOut run_padded(const GptConfig& cfg,
                  const std::vector<std::vector<int>>& seqs,
                  const std::vector<std::vector<int>>& tgts,
                  const std::vector<float>& dl_real,
                  const std::vector<float>& dv_real, int Tp, PadMode mode) {
  const int B = static_cast<int>(seqs.size()), V = cfg.vocab;
  std::vector<int> tokens(static_cast<std::size_t>(B) * Tp, 0);
  std::vector<int> targets(tokens.size(), -1), lens, real;  // real: b*Tp+t
  for (int b = 0; b < B; ++b) {
    lens.push_back(static_cast<int>(seqs[b].size()));
    for (int t = 0; t < lens[b]; ++t) {
      tokens[b * Tp + t] = seqs[b][t];
      targets[b * Tp + t] = tgts[b][t];
      real.push_back(b * Tp + t);
    }
  }
  Gpt model(cfg, 17);
  std::vector<int> heads = real;
  if (mode == PadMode::kAllRows) {
    heads.resize(tokens.size());
    std::iota(heads.begin(), heads.end(), 0);
    model.forward(tokens.data(), B, Tp);
  } else if (mode == PadMode::kRagged) {
    model.forward(tokens.data(), B, Tp, heads, lens);
  } else {
    model.forward(tokens.data(), B, Tp, heads);
  }
  // Head outputs at the real rows; dlogits and dvalues at the head rows,
  // zero at any padded one.
  PadOut o;
  std::vector<float> dl(heads.size() * V, 0.f), dv(heads.size(), 0.f);
  std::size_t k = 0;
  for (std::size_t r = 0; r < heads.size(); ++r) {
    if (k == real.size() || heads[r] != real[k]) continue;
    o.logits.insert(o.logits.end(), model.logits() + r * V,
                    model.logits() + (r + 1) * V);
    o.probs.insert(o.probs.end(), model.probs() + r * V,
                   model.probs() + (r + 1) * V);
    o.values.push_back(model.values()[r]);
    std::copy_n(dl_real.begin() + k * V, V, dl.begin() + r * V);
    dv[r] = dv_real[k];
    ++k;
  }
  model.zero_grad();
  model.backward_from(tokens.data(), dl.data(), dv.data(), B, Tp);
  o.grads_from = model.grads();
  model.zero_grad();
  o.loss = model.backward_lm(tokens.data(), targets.data(), B, Tp);
  o.grads_lm = model.grads();
  return o;
}

void expect_same(const PadOut& a, const PadOut& b) {
  EXPECT_TRUE(same_bits(a.logits, b.logits));
  EXPECT_TRUE(same_bits(a.probs, b.probs));
  EXPECT_TRUE(same_bits(a.values, b.values));
  EXPECT_TRUE(same_bits(a.grads_from, b.grads_from));
  EXPECT_TRUE(same_bits(a.grads_lm, b.grads_lm));
  EXPECT_TRUE(same_bits(&a.loss, &b.loss, 1));
}

}  // namespace

TEST(GptPadding, PaddingAndRaggedLengthsLeaveEveryBitAlone) {
  // Padding sits at the tail of each sequence and attention is causal, so
  // no real row reads a padded one; padded rows' gradients are exact zeros,
  // and an accumulator that starts at +0 never turns into -0, so their
  // terms leave every sum as it is. Padding the same sequences further must
  // not move a bit, and the ragged forward, which never touches a padded
  // row, must give the padded all-rows computation's bits at any thread
  // count.
  const GptConfig cfg = GptConfig::small();
  const int T = 40, V = cfg.vocab;
  const std::vector<int> lens{1, 40, 23, 40, 9, 33, 17, 2};
  Rng rng(23);
  std::vector<std::vector<int>> seqs, tgts;
  std::size_t real = 0;
  for (const int L : lens) {
    std::vector<int> seq, tgt;
    for (int t = 0; t < L; ++t) {
      seq.push_back(static_cast<int>(rng.below(V)));
      tgt.push_back(rng.below(4) == 0 ? -1 : static_cast<int>(rng.below(V)));
    }
    seqs.push_back(seq);
    tgts.push_back(tgt);
    real += L;
  }
  std::vector<float> dl(real * V), dv(real);
  for (float& x : dl) x = static_cast<float>(rng.uniform()) - 0.5f;
  for (float& x : dv) x = static_cast<float>(rng.uniform()) - 0.5f;

  const ThreadCountGuard guard;
  kern::set_num_threads(1);
  const auto run = [&](int Tp, PadMode mode) {
    return run_padded(cfg, seqs, tgts, dl, dv, Tp, mode);
  };
  const PadOut want = run(T, PadMode::kAllRows);
  EXPECT_NE(want.grads_from, std::vector<float>(want.grads_from.size(), 0.f));
  for (const int Tp : {T, T + 1, T + 7, T + 30}) {
    SCOPED_TRACE("Tp=" + std::to_string(Tp));
    expect_same(run(Tp, PadMode::kHeadRows), want);
    expect_same(run(Tp, PadMode::kAllRows), want);
  }
  for (const int nt : {1, 2, 3, 4}) {
    kern::set_num_threads(nt);
    for (const int Tp : {T, T + 7}) {
      SCOPED_TRACE("threads=" + std::to_string(nt) + " Tp=" +
                   std::to_string(Tp));
      expect_same(run(Tp, PadMode::kRagged), want);
    }
  }
}

namespace {

/// Forward, backward_from and backward_lm of `model` over every row of tb.
PadOut run_batch(Gpt& model, const TrainingBatch& tb) {
  const std::size_t BT = static_cast<std::size_t>(tb.B) * tb.T;
  const std::size_t V = static_cast<std::size_t>(model.config().vocab);
  PadOut o;
  model.forward(tb.tokens.data(), tb.B, tb.T);
  o.logits.assign(model.logits(), model.logits() + BT * V);
  o.probs.assign(model.probs(), model.probs() + BT * V);
  o.values.assign(model.values(), model.values() + BT);
  model.zero_grad();
  model.backward_from(tb.tokens.data(), tb.dlogits.data(), tb.dvalues.data(),
                      tb.B, tb.T);
  o.grads_from = model.grads();
  model.zero_grad();
  o.loss = model.backward_lm(tb.tokens.data(), tb.targets.data(), tb.B, tb.T);
  o.grads_lm = model.grads();
  return o;
}

}  // namespace

TEST(GptArena, GrowingAndReusingTheArenasLeavesEveryBitAlone) {
  // A model that ran [B/2, T/2] grows both arenas at [B, T], from fresh,
  // unwritten pages; then [B/2, T/2] runs again inside the larger arenas,
  // over what [B, T] left there. Neither may move a bit: the [B, T] head
  // outputs and gradients equal a fresh model's, and the second small run
  // equals the first.
  const GptConfig cfg = GptConfig::small();
  const TrainingBatch big = make_training_batch(cfg, 44);
  TrainingBatch small;  // the first B/2 sequences' first T/2 tokens
  small.B = big.B / 2;
  small.T = big.T / 2;
  const std::size_t V = static_cast<std::size_t>(cfg.vocab);
  for (int b = 0; b < small.B; ++b) {
    for (int t = 0; t < small.T; ++t) {
      const std::size_t n = static_cast<std::size_t>(b) * big.T + t;
      small.tokens.push_back(big.tokens[n]);
      small.targets.push_back(big.targets[n]);
      small.dlogits.insert(small.dlogits.end(), big.dlogits.begin() + n * V,
                           big.dlogits.begin() + (n + 1) * V);
      small.dvalues.push_back(big.dvalues[n]);
    }
  }
  const ThreadCountGuard guard;
  for (const int nt : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(nt));
    kern::set_num_threads(nt);
    Gpt fresh(cfg, 8), reused(cfg, 8);
    const PadOut small_first = run_batch(reused, small);
    const PadOut big_grown = run_batch(reused, big);
    const PadOut small_again = run_batch(reused, small);
    const PadOut big_fresh = run_batch(fresh, big);
    EXPECT_NE(big_fresh.grads_from,
              std::vector<float>(big_fresh.grads_from.size(), 0.f));
    expect_same(big_grown, big_fresh);
    expect_same(small_again, small_first);
  }
}

namespace {

/// PpoTrainer::update as it was before the LM head ran only at action rows:
/// every forward scores all B*T rows and the policy gradient goes through
/// full [B*T, V] dlogits. Frozen here as the reference for the action-row
/// path.
void full_row_ppo_update(Gpt& policy, Gpt& ref, AdamW& opt,
                         const PpoConfig& cfg,
                         const std::vector<Generation>& gens,
                         const std::vector<double>& rewards,
                         const std::vector<std::vector<float>>& token_rewards) {
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    if (!gens[i].response.empty()) keep.push_back(i);
  }
  const int B = static_cast<int>(keep.size());
  int T = 0;
  for (std::size_t i : keep) {
    T = std::max(T, static_cast<int>(gens[i].prompt.size() +
                                     gens[i].response.size()));
  }
  T = std::min(T, policy.config().ctx);
  const int V = policy.config().vocab;
  std::vector<int> tokens(static_cast<std::size_t>(B) * T, Tokenizer::kPad);
  struct Action {
    int b, t_logits, token;
    float logp_old, shaped;
  };
  std::vector<Action> actions;
  for (int bi = 0; bi < B; ++bi) {
    const Generation& g = gens[keep[bi]];
    const int plen = static_cast<int>(g.prompt.size());
    int t = 0;
    for (int tok : g.prompt) {
      if (t >= T) break;
      tokens[bi * T + t++] = tok;
    }
    for (std::size_t j = 0; j < g.response.size(); ++j) {
      if (t >= T) break;
      tokens[bi * T + t] = g.response[j];
      const std::vector<float>& tr = token_rewards[keep[bi]];
      actions.push_back({bi, plen + static_cast<int>(j) - 1, g.response[j],
                         g.response_logps[j], j < tr.size() ? tr[j] : 0.f});
      ++t;
    }
  }
  ref.forward(tokens.data(), B, T);
  std::vector<float> act_rewards(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const Action& a = actions[i];
    const float kl = a.logp_old - ref.logprob(a.b, a.t_logits, a.token);
    act_rewards[i] = -cfg.kl_beta * kl + cfg.reward_scale * a.shaped;
  }
  for (int bi = 0; bi < B; ++bi) {
    for (std::size_t i = actions.size(); i-- > 0;) {
      if (actions[i].b == bi) {
        act_rewards[i] +=
            cfg.reward_scale * static_cast<float>(rewards[keep[bi]]);
        break;
      }
    }
  }
  std::vector<float> returns(actions.size(), 0.f);
  for (int bi = 0; bi < B; ++bi) {
    float acc = 0.f;
    for (std::size_t i = actions.size(); i-- > 0;) {
      if (actions[i].b != bi) continue;
      acc += act_rewards[i];
      returns[i] = acc;
    }
  }
  policy.forward(tokens.data(), B, T);
  std::vector<float> adv(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    adv[i] = returns[i] -
             policy.values()[actions[i].b * T + actions[i].t_logits];
  }
  if (cfg.whiten_advantages && adv.size() > 1) {
    double mean = 0.0;
    for (float x : adv) mean += x;
    mean /= static_cast<double>(adv.size());
    double var = 0.0;
    for (float x : adv) var += (x - mean) * (x - mean);
    var /= static_cast<double>(adv.size());
    const float inv = 1.f / (std::sqrt(static_cast<float>(var)) + 1e-6f);
    for (float& x : adv) x = (x - static_cast<float>(mean)) * inv;
  }
  const float inv_n = 1.f / static_cast<float>(actions.size());
  for (int epoch = 0; epoch < cfg.ppo_epochs; ++epoch) {
    if (epoch > 0) policy.forward(tokens.data(), B, T);
    std::vector<float> dlogits(static_cast<std::size_t>(B) * T * V, 0.f);
    std::vector<float> dvalues(static_cast<std::size_t>(B) * T, 0.f);
    for (std::size_t i = 0; i < actions.size(); ++i) {
      const Action& a = actions[i];
      const std::size_t row = static_cast<std::size_t>(a.b) * T + a.t_logits;
      const float ratio =
          std::exp(policy.logprob(a.b, a.t_logits, a.token) - a.logp_old);
      const float lo = 1.f - cfg.clip, hi = 1.f + cfg.clip;
      const float unclipped = ratio * adv[i];
      const float clippedv = std::clamp(ratio, lo, hi) * adv[i];
      const bool clip_active = ratio < lo || ratio > hi;
      float g = 0.f;
      if (unclipped <= clippedv || !clip_active) g = -inv_n * ratio * adv[i];
      const float* pr = policy.probs() + row * V;
      float* dl = dlogits.data() + row * V;
      if (g != 0.f) {
        for (int v = 0; v < V; ++v) dl[v] += g * -pr[v];
        dl[a.token] += g;
      }
      if (cfg.entropy_coef > 0.f) {
        double h = 0.0;
        for (int v = 0; v < V; ++v) {
          if (pr[v] > 1e-12f) h -= pr[v] * std::log(pr[v]);
        }
        const auto hf = static_cast<float>(h);
        for (int v = 0; v < V; ++v) {
          if (pr[v] > 1e-12f) {
            dl[v] += cfg.entropy_coef * inv_n * pr[v] * (std::log(pr[v]) + hf);
          }
        }
      }
      const float verr = policy.values()[row] - returns[i];
      dvalues[row] += cfg.vf_coef * verr * inv_n;
    }
    policy.zero_grad();
    policy.backward_from(tokens.data(), dlogits.data(), dvalues.data(), B, T);
    opt.step(policy.params(), policy.grads());
  }
}

std::string optimizer_bytes(const AdamW& opt) {
  ser::Writer w;
  opt.save_state(w);
  return w.buffer();
}

}  // namespace

TEST(PpoThreads, UpdateIsBitIdenticalAtAnyThreadCountAndMatchesFullRows) {
  const GptConfig cfg = GptConfig::small();
  Gpt start(cfg, 21);
  SampleConfig sc;
  sc.max_new_tokens = 40;
  sc.stop_at_eos = false;  // every lane runs to max_new_tokens
  const Sampler sampler(sc);
  Rng rng(9);
  std::vector<std::vector<int>> prompts;
  for (int b = 0; b < 12; ++b) {
    prompts.emplace_back(1 + b % 5, 1 + b);  // prompt lengths 1..5
  }
  const std::vector<Generation> gens = sampler.generate(start, prompts, rng);
  std::vector<double> rewards;
  std::vector<std::vector<float>> dense;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    rewards.push_back(static_cast<double>(i % 3) - 1.0);
    std::vector<float> d;
    for (int t : gens[i].response) d.push_back(t % 2 == 0 ? 0.5f : -0.25f);
    dense.push_back(std::move(d));
  }
  const ThreadCountGuard guard;
  for (const float entropy : {0.f, 0.01f}) {
    SCOPED_TRACE("entropy_coef=" + std::to_string(entropy));
    PpoConfig pc;
    pc.entropy_coef = entropy;
    pc.lr = 1e-3f;
    std::vector<std::vector<float>> params;
    std::vector<std::string> moments;
    for (const int nt : {1, 4}) {
      kern::set_num_threads(nt);
      Gpt policy = start, ref = start;
      PpoTrainer ppo(policy, ref, pc);
      ppo.update(gens, rewards, &dense);
      ppo.update(gens, rewards, &dense);  // a second step reads the moments
      params.push_back(policy.params());
      moments.push_back(optimizer_bytes(ppo.optimizer()));
    }
    kern::set_num_threads(1);
    Gpt policy = start, ref = start;
    AdamW opt(policy.num_params(), AdamWConfig{pc.lr});
    full_row_ppo_update(policy, ref, opt, pc, gens, rewards, dense);
    full_row_ppo_update(policy, ref, opt, pc, gens, rewards, dense);
    params.push_back(policy.params());
    moments.push_back(optimizer_bytes(opt));

    EXPECT_NE(params[0], start.params());  // the update did something
    for (std::size_t i = 1; i < params.size(); ++i) {
      EXPECT_TRUE(same_bits(params[i], params[0])) << "run " << i;
      EXPECT_EQ(moments[i], moments[0]) << "run " << i;
    }
  }
}

TEST(DecodeThreads, GenStepAndSamplerAreBitIdenticalAtAnyThreadCount) {
  // gen_step splits its batch rows and Sampler::generate its per-row
  // sampling work across the pool; neither may move a bit. B = 7 and 32
  // both engage the pool, prompts are ragged, and some rows stop at EOS
  // while others go on decoding.
  const GptConfig cfg = GptConfig::small();
  const Gpt model(cfg, 41);
  const ThreadCountGuard guard;
  for (const int B : {7, 32}) {
    SCOPED_TRACE("B=" + std::to_string(B));
    Rng prompt_rng(static_cast<std::uint64_t>(B));
    std::vector<std::vector<int>> prompts(B);
    for (int b = 0; b < B; ++b) {
      for (int t = 0; t < 1 + b % 6; ++t) {
        prompts[b].push_back(static_cast<int>(prompt_rng.below(cfg.vocab)));
      }
    }
    SampleConfig sc;
    sc.temperature = 0.85f;
    sc.top_k = 20;
    sc.min_new_tokens = 2;
    sc.max_new_tokens = 24;
    // EOS is a token row 0 samples mid-response without EOS stops, so rows
    // stop early once EOS stops are on.
    {
      kern::set_num_threads(1);
      SampleConfig probe = sc;
      probe.stop_at_eos = false;
      Rng rng(3);
      sc.eos_token = Sampler(probe).generate(model, prompts, rng)[0].response[6];
    }

    std::vector<std::vector<Generation>> gens;
    std::vector<std::vector<float>> logits;
    for (const int nt : {1, 2, 3, 4}) {
      kern::set_num_threads(nt);
      Rng rng(3);
      gens.push_back(Sampler(sc).generate(model, prompts, rng));
      // Every step's logits over the sampled sequences, padded with EOS.
      std::size_t T = 0;
      for (const Generation& g : gens.back()) {
        T = std::max(T, g.prompt.size() + g.response.size());
      }
      Gpt::GenState st = model.gen_begin(B);
      std::vector<float> step(static_cast<std::size_t>(B) * cfg.vocab);
      std::vector<int> column(B);
      logits.emplace_back();
      for (std::size_t t = 0; t < T; ++t) {
        for (int b = 0; b < B; ++b) {
          const Generation& g = gens.back()[b];
          const std::size_t P = g.prompt.size();
          column[b] = t < P                       ? g.prompt[t]
                      : t - P < g.response.size() ? g.response[t - P]
                                                  : sc.eos_token;
        }
        model.gen_step(st, column.data(), step.data());
        logits.back().insert(logits.back().end(), step.begin(), step.end());
      }
    }
    int stopped = 0;
    for (const Generation& g : gens[0]) {
      stopped += static_cast<int>(g.response.size()) < sc.max_new_tokens;
    }
    EXPECT_GT(stopped, 0);
    EXPECT_LT(stopped, B);
    for (std::size_t i = 1; i < gens.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(i + 1));
      for (int b = 0; b < B; ++b) {
        EXPECT_EQ(gens[i][b].response, gens[0][b].response) << "row " << b;
        ASSERT_EQ(gens[i][b].response_logps.size(),
                  gens[0][b].response_logps.size());
        EXPECT_EQ(std::memcmp(gens[i][b].response_logps.data(),
                              gens[0][b].response_logps.data(),
                              gens[0][b].response_logps.size() * sizeof(float)),
                  0)
            << "row " << b;
      }
      ASSERT_EQ(logits[i].size(), logits[0].size());
      EXPECT_EQ(std::memcmp(logits[i].data(), logits[0].data(),
                            logits[0].size() * sizeof(float)),
                0);
    }
  }
}

TEST(Ppo, EmptyPromptsAreSkipped) {
  // The first action's logits come from the last prompt position; without a
  // prompt there is none.
  const GptConfig cfg = GptConfig::tiny();
  Gpt policy(cfg, 7), ref(cfg, 7);
  ref.copy_params_from(policy);
  PpoTrainer ppo(policy, ref, PpoConfig{});
  Generation g;
  g.response = {1, 2};
  g.response_logps = {-1.f, -1.f};
  const PpoStats st = ppo.update({g}, {1.0});
  EXPECT_EQ(st.num_actions, 0u);
}

// ---- persistence -------------------------------------------------------------------

TEST(Persistence, SaveLoadRoundTrip) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt a(cfg, 55);
  const std::string path = ::testing::TempDir() + "/gpt_test.bin";
  const ser::Status saved = a.save(path);
  ASSERT_TRUE(saved.ok()) << saved.message();
  Gpt b(cfg, 1);  // different init
  const ser::Status loaded = b.load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(a.params(), b.params());
}

TEST(Persistence, LoadRejectsWrongConfig) {
  Gpt a(GptConfig::tiny(), 55);
  const std::string path = ::testing::TempDir() + "/gpt_test2.bin";
  ASSERT_TRUE(a.save(path).ok());
  Gpt b(GptConfig::small(), 1);
  const ser::Status loaded = b.load(path);
  EXPECT_FALSE(loaded.ok());
  // The diagnostic must say what went wrong, not just "false".
  EXPECT_NE(loaded.message().find("config"), std::string::npos)
      << loaded.message();
}

}  // namespace
}  // namespace chatfuzz::ml
