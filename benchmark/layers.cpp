// Per-layer probes of the traced benchmark run. Everything here calls the
// library's public functions from outside, wraps each call in a "bench.*"
// obs span (exported by main.cpp as a Chrome trace) and sums its
// steady_clock duration; no library code is instrumented.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "bench.h"
#include "core/sim_worker.h"
#include "core/training.h"
#include "corpus/generator.h"
#include "coverage/merge.h"
#include "dist/protocol.h"
#include "ml/adamw.h"
#include "ml/ppo.h"
#include "ml/sampler.h"
#include "ml/tokenizer.h"
#include "obs/trace.h"
#include "riscv/decode.h"
#include "rtlsim/dut.h"

using namespace chatfuzz;

namespace bench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Run `f` inside the named obs span and add its duration to `*acc`.
template <class F>
auto timed(const char* span, double* acc, F&& f) {
  const obs::ScopedSpan s(span);
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    *acc += seconds_since(t0);
  } else {
    auto r = f();
    *acc += seconds_since(t0);
    return r;
  }
}

/// Reset + run one DUT backend on `test` with its commits discarded.
std::uint64_t run_dut(rtl::DutCore& dut, sim::DiscardSink& discard,
                      const core::Program& test) {
  dut.ctrl_cov().begin_test();
  dut.set_sink(&discard);
  dut.reset(test);
  const std::uint64_t steps = dut.run().steps;
  dut.set_sink(nullptr);
  return steps;
}

constexpr std::size_t kLeaseTests = 8;

}  // namespace

SimLayers measure_sim_layers(const core::CampaignConfig& cfg,
                             const std::vector<core::Program>& tests) {
  SimLayers L;
  core::SimStack stack(cfg, /*use_suite=*/false);
  // The coordinator's view: a registrar DB with one backend per effective
  // DUT in list order, exactly like the engine builds it.
  cov::CoverageDB registrar;
  for (const rtl::CoreConfig& core : core::effective_duts(cfg)) {
    (void)rtl::make_dut(core, registrar, cfg.platform);
  }
  mismatch::MismatchDetector tally;

  // Each call gets its own pass over a chunk of tests, so every model runs
  // back to back with warm caches, as it does inside a campaign.
  constexpr std::size_t kChunk = 256;
  std::vector<core::TestArtifact> arts(kChunk);
  sim::DiscardSink discard;
  for (std::size_t base = 0; base < tests.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, tests.size() - base);
    const auto each = [&](auto&& f) {
      for (std::size_t i = 0; i < n; ++i) f(tests[base + i], arts[i]);
    };
    timed("bench.run_one", &L.run_one_s, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        core::run_one(stack, cfg, false, tests[base + i], base + i, arts[i]);
      }
    });
    for (const auto& d : stack.duts) {
      double dt = 0;
      timed("bench.dut_run", &dt, [&] {
        each([&](const core::Program& t, const core::TestArtifact&) {
          L.dut_steps += run_dut(*d, discard, t);
        });
      });
      L.dut_s += dt;
      if (d->config().out_of_order) L.ooo_s += dt;
    }
    timed("bench.golden_run", &L.golden_s, [&] {
      each([&](const core::Program& t, const core::TestArtifact&) {
        stack.golden->set_sink(&discard);
        stack.golden->reset(t);
        L.golden_steps += stack.golden->run().steps;
        stack.golden->set_sink(nullptr);
      });
    });
    timed("bench.apply_bins", &L.apply_bins_s, [&] {
      each([&](const core::Program&, const core::TestArtifact& a) {
        cov::apply_bins(registrar, a.cond_bins);
      });
    });
    timed("bench.accumulate", &L.accumulate_s, [&] {
      each([&](const core::Program&, const core::TestArtifact& a) {
        tally.accumulate(a.report);
      });
    });
    each([&](const core::Program&, const core::TestArtifact& a) {
      ++L.tests;
      L.steps += a.steps;
      L.cycles += a.cycles;
      L.bins += a.cond_bins.size();
      L.raw_mismatches += a.report.raw_count;
    });

    // The chunk's whole leases through the wire encoding and back.
    std::vector<dist::LeaseResultMsg> leases(n / kLeaseTests);
    for (std::size_t k = 0; k < leases.size(); ++k) {
      leases[k].lease_id = k;
      leases[k].artifacts.assign(arts.begin() + k * kLeaseTests,
                                 arts.begin() + (k + 1) * kLeaseTests);
    }
    std::vector<std::string> payloads;
    timed("bench.encode_lease", &L.encode_s, [&] {
      for (const dist::LeaseResultMsg& m : leases) {
        payloads.push_back(dist::encode_lease_result(m));
      }
    });
    dist::LeaseResultMsg back;
    timed("bench.decode_lease", &L.decode_s, [&] {
      for (const std::string& p : payloads) {
        const ser::Status s = dist::decode_lease_result(p, &back);
        if (!s.ok() || back.artifacts.size() != kLeaseTests) {
          throw std::runtime_error("lease result did not round-trip: " +
                                   s.message());
        }
      }
    });
    L.leased_tests += leases.size() * kLeaseTests;
    for (const std::string& p : payloads) L.lease_bytes += p.size();
  }
  return L;
}

namespace {

/// The [B,T] token batch and action positions a PPO update builds from
/// `gens` (same layout as ml::PpoTrainer::update).
struct PpoBatch {
  int B = 0, T = 0;
  std::vector<int> tokens;
  struct Action {
    int b, t_logits, token;
  };
  std::vector<Action> actions;
};

PpoBatch ppo_batch(const std::vector<ml::Generation>& gens, int ctx) {
  PpoBatch p;
  for (const ml::Generation& g : gens) {
    p.T = std::max(p.T, static_cast<int>(g.prompt.size() + g.response.size()));
  }
  p.T = std::min(p.T, ctx);
  p.B = static_cast<int>(gens.size());
  p.tokens.assign(static_cast<std::size_t>(p.B) * p.T, ml::Tokenizer::kPad);
  for (int b = 0; b < p.B; ++b) {
    const ml::Generation& g = gens[b];
    const int plen = static_cast<int>(g.prompt.size());
    int t = 0;
    for (int tok : g.prompt) {
      if (t >= p.T) break;
      p.tokens[b * p.T + t++] = tok;
    }
    for (std::size_t j = 0; j < g.response.size() && t < p.T; ++j, ++t) {
      p.tokens[b * p.T + t] = g.response[j];
      p.actions.push_back({b, plen + static_cast<int>(j) - 1, g.response[j]});
    }
  }
  return p;
}

}  // namespace

MlLayer measure_ml_layer(const core::ChatFuzzConfig& cc, const ml::Gpt& policy,
                         std::uint64_t seed, int reps) {
  constexpr int kPrompts = 32;  // the campaign batch size
  ml::Gpt model(cc.model, cc.seed);
  model.copy_params_from(policy);

  // Prompts drawn the way ChatFuzzGenerator::next_batch draws them.
  corpus::CorpusGenerator corpus(corpus::CorpusConfig{}, seed + 101);
  Rng rng(seed + 103);
  const ml::Tokenizer tok;
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < kPrompts; ++i) {
    const auto k = static_cast<unsigned>(rng.range(cc.prompt_min, cc.prompt_max));
    prompts.push_back(tok.encode(corpus.prompt(k), /*with_bos=*/true));
  }
  ml::SampleConfig sc = cc.sample;
  sc.max_new_tokens = cc.gen_tokens;
  const ml::Sampler sampler(sc);

  // Every ML timing is a median of `reps` calls after one warm-up call
  // (round -1), which keeps first-use allocations out of it.
  std::vector<ml::Generation> gens;
  std::vector<double> sample_s;
  for (int r = -1; r < reps; ++r) {
    double dt = 0;
    timed("bench.ml.sample", &dt,
          [&] { gens = sampler.generate(model, prompts, rng); });
    if (r >= 0) sample_s.push_back(dt);
  }
  const double sample = median(sample_s);
  std::size_t tokens = 0, words = 0, valid = 0;
  for (const ml::Generation& g : gens) {
    tokens += g.response.size();
    for (std::uint32_t w : tok.decode(g.response)) {
      ++words;
      valid += riscv::is_valid(w) ? 1 : 0;
    }
  }
  const PpoBatch pb = ppo_batch(gens, cc.model.ctx);
  const int V = cc.model.vocab;

  // gen_step: one decode pass over the batch's full length, per step.
  std::vector<float> logits(static_cast<std::size_t>(pb.B) * V);
  std::vector<int> column(pb.B);
  std::vector<double> step_s;
  for (int r = -1; r < reps; ++r) {
    ml::Gpt::GenState st = model.gen_begin(pb.B);
    double dt = 0;
    for (int t = 0; t < pb.T; ++t) {
      for (int b = 0; b < pb.B; ++b) column[b] = pb.tokens[b * pb.T + t];
      timed("bench.ml.gen_step", &dt,
            [&] { model.gen_step(st, column.data(), logits.data()); });
    }
    if (r >= 0) step_s.push_back(dt / pb.T);
  }

  // PPO parts at the same [B,T]; dlogits is nonzero only at action rows,
  // taken from one forward before the timed calls.
  const ml::Gpt update_src = model;  // weights before AdamW below steps them
  model.forward(pb.tokens.data(), pb.B, pb.T);
  const std::size_t BT = static_cast<std::size_t>(pb.B) * pb.T;
  std::vector<float> dlogits(BT * V, 0.f), dvalues(BT, 0.f);
  const float inv_n =
      1.f / static_cast<float>(std::max<std::size_t>(1, pb.actions.size()));
  for (const PpoBatch::Action& a : pb.actions) {
    const std::size_t row = static_cast<std::size_t>(a.b) * pb.T + a.t_logits;
    const float* pr = model.probs() + row * V;
    float* dl = dlogits.data() + row * V;
    for (int v = 0; v < V; ++v) dl[v] = -inv_n * pr[v];
    dl[a.token] += inv_n;
    dvalues[row] = 0.5f * inv_n;
  }
  ml::AdamW opt(model.num_params(), ml::AdamWConfig{cc.ppo.lr});

  // The whole update, on its own policy copy with campaign-style rewards.
  ml::Gpt upd = update_src;
  const ml::Gpt ref = update_src;
  ml::PpoTrainer trainer(upd, ref, cc.ppo);
  std::vector<double> rewards(gens.size());
  std::vector<std::vector<float>> dense(gens.size());
  for (std::size_t i = 0; i < gens.size(); ++i) {
    rewards[i] = static_cast<double>(i % 3) - 1.0;
    dense[i] = core::per_token_validity_rewards(gens[i].response);
  }

  // One stage-1 pretraining step at the configured [batch, seq_len].
  const int PB = cc.pretrain.batch;
  const int PT = std::min(cc.pretrain.seq_len, cc.model.ctx);
  std::vector<int> in(static_cast<std::size_t>(PB) * PT), tgt(in.size());
  const std::vector<corpus::Program> data = corpus.dataset(PB);
  for (int b = 0; b < PB; ++b) {
    const std::vector<int> row = tok.encode(data[b], true, true);
    for (int t = 0; t < PT; ++t) {
      const auto idx = static_cast<std::size_t>(t);
      in[b * PT + t] = idx < row.size() ? row[idx] : ml::Tokenizer::kPad;
      tgt[b * PT + t] = idx + 1 < row.size() ? row[idx + 1] : -1;
    }
  }
  ml::Gpt pm = update_src;
  ml::AdamW popt(pm.num_params(), ml::AdamWConfig{cc.pretrain.lr});

  // The parts and the whole update take turns, so a slow spell of the
  // machine falls on both alike.
  std::vector<double> fwd_s, bwd_s, adamw_s, ppo_s, pre_s;
  for (int r = -1; r < reps; ++r) {
    double fwd = 0, bwd = 0, adamw = 0, ppo = 0, pre = 0;
    timed("bench.ml.forward", &fwd,
          [&] { model.forward(pb.tokens.data(), pb.B, pb.T); });
    model.zero_grad();
    timed("bench.ml.backward", &bwd, [&] {
      model.backward_from(pb.tokens.data(), dlogits.data(), dvalues.data(),
                          pb.B, pb.T);
    });
    timed("bench.ml.adamw", &adamw,
          [&] { opt.step(model.params(), model.grads()); });
    timed("bench.ml.ppo_update", &ppo,
          [&] { (void)trainer.update(gens, rewards, &dense); });
    timed("bench.ml.pretrain_step", &pre, [&] {
      pm.forward(in.data(), PB, PT);
      pm.zero_grad();
      (void)pm.backward_lm(in.data(), tgt.data(), PB, PT);
      popt.step(pm.params(), pm.grads());
    });
    if (r < 0) continue;
    fwd_s.push_back(fwd);
    bwd_s.push_back(bwd);
    adamw_s.push_back(adamw);
    ppo_s.push_back(ppo);
    pre_s.push_back(pre);
  }
  MlLayer L;
  L.sample_s = sample;
  L.gen_step_s = median(step_s);
  L.tokens = tokens;
  L.forward_s = median(fwd_s);
  L.backward_s = median(bwd_s);
  L.adamw_s = median(adamw_s);
  L.ppo_update_s = median(ppo_s);
  L.pretrain_step_s = median(pre_s);
  L.words = words;
  L.valid_words = valid;
  return L;
}

void report_ml_layer(const MlLayer& L, Metrics& out) {
  out.push_back({"ml.sample_ms", 1e3 * L.sample_s, "ms"});
  out.push_back({"ml.gen_step_us", 1e6 * L.gen_step_s, "us"});
  out.push_back({"ml.tokens_per_s",
                 L.sample_s > 0 ? static_cast<double>(L.tokens) / L.sample_s : 0,
                 "tokens/s"});
  out.push_back({"ml.forward_ms", 1e3 * L.forward_s, "ms"});
  out.push_back({"ml.backward_ms", 1e3 * L.backward_s, "ms"});
  out.push_back({"ml.adamw_ms", 1e3 * L.adamw_s, "ms"});
  out.push_back({"ml.ppo_update_ms", 1e3 * L.ppo_update_s, "ms"});
  // PpoTrainer::update runs 3 forwards (reference, policy, second epoch),
  // 2 backwards and 2 AdamW steps; the rest is its own bookkeeping.
  out.push_back({"ml.ppo_rest_ms",
                 1e3 * (L.ppo_update_s - 3 * L.forward_s - 2 * L.backward_s -
                        2 * L.adamw_s),
                 "ms"});
  out.push_back({"ml.pretrain_step_ms", 1e3 * L.pretrain_step_s, "ms"});
  out.push_back({"ml.valid_instr_share",
                 L.words > 0 ? static_cast<double>(L.valid_words) / L.words : 0,
                 "share"});
}

}  // namespace bench
