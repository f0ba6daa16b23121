#include "ml/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ml/kernels.h"

namespace chatfuzz::ml {

namespace {

/// One row's sampling state for one step: everything but the random draw.
/// Rows are independent, so this part runs across the kernel pool; the
/// draws then run in row order, which keeps the Rng stream the same.
struct RowDraw {
  std::vector<std::pair<float, int>> scored;  // [vocab], top k sorted first
  std::vector<float> mass;  // exp(score - smax) of the k kept candidates
  float maxv = 0.f;         // full-distribution logit max
  double log_denom = 0.0;   // log sum exp(logit - maxv) over the vocabulary
  double ssum = 0.0;        // sum of mass
  int k = 0;                // candidates kept after top-k and top-p
};

/// Full-distribution log-softmax terms, then the tempered top-k/top-p cut
/// and its sampling mass, for one row of logits.
void prepare(RowDraw& d, const float* logits, int vocab,
             const SampleConfig& cfg, bool ban_eos) {
  // Full-distribution log-softmax (PPO's logp_old must match what training
  // recomputes, independent of sampling temperature / top-k truncation).
  float maxv = -1e30f;
  for (int v = 0; v < vocab; ++v) maxv = std::max(maxv, logits[v]);
  double denom = 0.0;
  for (int v = 0; v < vocab; ++v) denom += std::exp(logits[v] - maxv);
  d.maxv = maxv;
  d.log_denom = std::log(denom);

  // Sampling distribution: temperature + top-k.
  const float invt = cfg.temperature > 0.f ? 1.f / cfg.temperature : 1.f;
  std::vector<std::pair<float, int>>& scored = d.scored;
  scored.resize(vocab);
  for (int v = 0; v < vocab; ++v) {
    const bool banned = ban_eos && v == cfg.eos_token;
    scored[v] = {banned ? -1e30f : logits[v] * invt, v};
  }
  int k = cfg.top_k > 0 ? std::min(cfg.top_k, vocab) : vocab;
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](auto& x, auto& y) { return x.first > y.first; });
  const float smax = scored[0].first;
  if (cfg.top_p < 1.f) {
    // Nucleus filter (applied after top-k, as in the HF generate stack):
    // keep the smallest sorted prefix holding >= top_p of the *tempered*
    // distribution's mass; the mass denominator spans the full vocabulary.
    double full = 0.0;
    for (const auto& [score, _] : scored) full += std::exp(score - smax);
    double cum = 0.0;
    int kept = 0;
    while (kept < k) {
      cum += std::exp(scored[kept].first - smax);
      ++kept;
      if (cum / full >= cfg.top_p) break;
    }
    k = kept;
  }
  d.k = k;
  d.mass.resize(k);
  d.ssum = 0.0;
  for (int i = 0; i < k; ++i) {
    d.mass[i] = std::exp(scored[i].first - smax);
    d.ssum += d.mass[i];
  }
}

/// Draw from a prepared row; returns the token and its full-distribution
/// log-probability.
int draw(const RowDraw& d, const float* logits, Rng& rng, float* logp) {
  double r = rng.uniform() * d.ssum;
  int chosen = d.scored[d.k - 1].second;
  for (int i = 0; i < d.k; ++i) {
    const double p = d.mass[i];
    if (r < p) {
      chosen = d.scored[i].second;
      break;
    }
    r -= p;
  }
  *logp = static_cast<float>(logits[chosen] - d.maxv - d.log_denom);
  return chosen;
}

[[noreturn]] void reject(const char* what, int token, int vocab) {
  std::fprintf(stderr,
               "Sampler::generate: %s %d is outside the vocabulary [0, %d)\n",
               what, token, vocab);
  std::abort();
}

}  // namespace

std::vector<Generation> Sampler::generate(
    const Gpt& model, const std::vector<std::vector<int>>& prompts,
    Rng& rng) const {
  const int B = static_cast<int>(prompts.size());
  const int ctx = model.config().ctx;
  const int vocab = model.config().vocab;
  // Every token reaches gen_step as an embedding row index, and eos_token
  // must name one too: a sampled EOS is fed back when it does not stop its
  // row.
  if (cfg_.eos_token < 0 || cfg_.eos_token >= vocab) {
    reject("eos_token", cfg_.eos_token, vocab);
  }
  for (const std::vector<int>& prompt : prompts) {
    if (prompt.empty()) {
      std::fprintf(stderr, "Sampler::generate: empty prompt\n");
      std::abort();
    }
    for (const int tok : prompt) {
      if (tok < 0 || tok >= vocab) reject("prompt token", tok, vocab);
    }
  }

  std::vector<Generation> gens(B);
  for (int b = 0; b < B; ++b) gens[b].prompt = prompts[b];

  Gpt::GenState state = model.gen_begin(B);
  std::vector<int> cur(B);
  std::vector<bool> done(B, false);
  for (int b = 0; b < B; ++b) cur[b] = prompts[b].front();

  std::vector<float> logits(static_cast<std::size_t>(B) * vocab);
  std::vector<RowDraw> draws(B);
  std::vector<int> active;    // rows that are not done, ascending
  std::vector<int> sampling;  // rows that draw a token this step, ascending
  active.reserve(B);
  sampling.reserve(B);

  for (int pos = 0; pos + 1 < ctx; ++pos) {
    active.clear();
    for (int b = 0; b < B; ++b) {
      if (!done[b]) active.push_back(b);
    }
    if (active.empty()) break;

    // A finished row's logits would be discarded, so it is not decoded.
    model.gen_step(state, cur.data(), logits.data(), active);

    sampling.clear();
    for (const int b : active) {
      const auto prompt_len = static_cast<int>(prompts[b].size());
      if (pos + 1 < prompt_len) {
        cur[b] = prompts[b][pos + 1];  // still consuming the prompt
      } else {
        sampling.push_back(b);
      }
    }
    // An exp and a partial-sort step per candidate, a few dozen flops.
    kern::parallel_ranges(static_cast<int>(sampling.size()),
                          static_cast<std::size_t>(64) * vocab,
                          [&](int lo, int hi) {
      for (int i = lo; i < hi; ++i) {
        const int b = sampling[i];
        const bool ban_eos =
            static_cast<int>(gens[b].response.size()) < cfg_.min_new_tokens;
        prepare(draws[b], logits.data() + static_cast<std::size_t>(b) * vocab,
                vocab, cfg_, ban_eos);
      }
    });
    for (const int b : sampling) {
      float logp = 0.f;
      const int tok = draw(draws[b],
                           logits.data() + static_cast<std::size_t>(b) * vocab,
                           rng, &logp);
      gens[b].response.push_back(tok);
      gens[b].response_logps.push_back(logp);
      cur[b] = tok;
      if ((cfg_.stop_at_eos && tok == cfg_.eos_token) ||
          static_cast<int>(gens[b].response.size()) >= cfg_.max_new_tokens) {
        done[b] = true;
      }
    }
  }
  return gens;
}

}  // namespace chatfuzz::ml
