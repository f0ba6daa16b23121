#include "ml/ppo.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/kernels.h"
#include "ml/tokenizer.h"
#include "obs/trace.h"

namespace chatfuzz::ml {

PpoTrainer::PpoTrainer(Gpt& policy, const Gpt& reference, PpoConfig cfg)
    : policy_(policy),
      ref_(reference),
      cfg_(cfg),
      opt_(policy.num_params(), AdamWConfig{cfg.lr}) {}

PpoStats PpoTrainer::update(const std::vector<Generation>& gens,
                            const std::vector<double>& rewards,
                            const std::vector<std::vector<float>>* token_rewards) {
  OBS_SPAN("ml.ppo_update");
  PpoStats stats;

  // Keep only sequences with a non-empty response. The first action's
  // logits come from the last prompt position, so the prompt must not be
  // empty either.
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    if (!gens[i].prompt.empty() && !gens[i].response.empty()) keep.push_back(i);
  }
  if (keep.empty()) return stats;

  const int B = static_cast<int>(keep.size());
  int T = 0;
  for (std::size_t i : keep) {
    T = std::max(T, static_cast<int>(gens[i].prompt.size() +
                                     gens[i].response.size()));
  }
  T = std::min(T, policy_.config().ctx);
  const int V = policy_.config().vocab;

  // Padded token batch; actions are response tokens; the logits that chose
  // the response token at sequence position s live at position s-1.
  std::vector<int> tokens(static_cast<std::size_t>(B) * T, Tokenizer::kPad);
  struct Action {
    int b;
    int t_logits;   // position whose logits produced the action
    int token;
    float logp_old;
    float shaped;   // dense per-token reward (pre-scaling)
  };
  std::vector<Action> actions;
  // Each sequence's real length; the rest of its row is padding, which the
  // model never reads.
  std::vector<int> lengths(B);
  for (int bi = 0; bi < B; ++bi) {
    const Generation& g = gens[keep[bi]];
    const int plen = static_cast<int>(g.prompt.size());
    lengths[bi] = std::min(T, plen + static_cast<int>(g.response.size()));
    const std::vector<float>* tr =
        token_rewards != nullptr ? &(*token_rewards)[keep[bi]] : nullptr;
    int t = 0;
    for (int tok : g.prompt) {
      if (t >= T) break;
      tokens[bi * T + t++] = tok;
    }
    for (std::size_t j = 0; j < g.response.size(); ++j) {
      if (t >= T) break;
      tokens[bi * T + t] = g.response[j];
      const float shaped = tr != nullptr && j < tr->size() ? (*tr)[j] : 0.f;
      actions.push_back({bi, plen + static_cast<int>(j) - 1, g.response[j],
                         g.response_logps[j], shaped});
      ++t;
    }
  }
  if (actions.empty()) return stats;
  stats.num_actions = actions.size();

  // Nothing reads the LM and value heads outside the action rows, so both
  // models run them only there. Actions are in ascending (b, t) order, so
  // head output i belongs to action i.
  std::vector<int> rows(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    rows[i] = actions[i].b * T + actions[i].t_logits;
  }

  // Reference logprobs (frozen model) for the KL penalty.
  Gpt& mutable_ref = const_cast<Gpt&>(ref_);  // forward only; no grads
  mutable_ref.forward(tokens.data(), B, T, rows, lengths);
  std::vector<float> logp_ref(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const Action& a = actions[i];
    logp_ref[i] = mutable_ref.logprob(a.b, a.t_logits, a.token);
  }

  // Per-token rewards: -beta * (logp_old - logp_ref), terminal env reward
  // added on the last action of each sequence (trl-style shaping).
  std::vector<float> act_rewards(actions.size(), 0.f);
  double kl_sum = 0.0;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const float kl = actions[i].logp_old - logp_ref[i];
    kl_sum += kl;
    act_rewards[i] = -cfg_.kl_beta * kl + cfg_.reward_scale * actions[i].shaped;
  }
  stats.mean_kl = static_cast<float>(kl_sum / static_cast<double>(actions.size()));
  double env_sum = 0.0;
  for (int bi = 0; bi < B; ++bi) {
    env_sum += rewards[keep[bi]];
    // find last action of sequence bi
    for (std::size_t i = actions.size(); i-- > 0;) {
      if (actions[i].b == bi) {
        act_rewards[i] +=
            cfg_.reward_scale * static_cast<float>(rewards[keep[bi]]);
        break;
      }
    }
  }
  stats.mean_env_reward = static_cast<float>(env_sum / B);

  // Returns: undiscounted reward-to-go within each sequence.
  std::vector<float> returns(actions.size(), 0.f);
  for (int bi = 0; bi < B; ++bi) {
    float acc = 0.f;
    for (std::size_t i = actions.size(); i-- > 0;) {
      if (actions[i].b != bi) continue;
      acc += act_rewards[i];
      returns[i] = acc;
    }
  }

  // Advantages from the pre-update value estimates.
  policy_.forward(tokens.data(), B, T, rows, lengths);
  std::vector<float> adv(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    adv[i] = returns[i] - policy_.values()[i];
  }
  if (cfg_.whiten_advantages && adv.size() > 1) {
    double mean = 0.0;
    for (float x : adv) mean += x;
    mean /= static_cast<double>(adv.size());
    double var = 0.0;
    for (float x : adv) var += (x - mean) * (x - mean);
    var /= static_cast<double>(adv.size());
    const float inv = 1.f / (std::sqrt(static_cast<float>(var)) + 1e-6f);
    for (float& x : adv) x = (x - static_cast<float>(mean)) * inv;
  }

  // PPO epochs.
  const float inv_n = 1.f / static_cast<float>(actions.size());
  std::vector<float> dlogits(actions.size() * V);
  std::vector<float> dvalues(actions.size());
  for (int epoch = 0; epoch < cfg_.ppo_epochs; ++epoch) {
    if (epoch > 0) policy_.forward(tokens.data(), B, T, rows, lengths);
    std::fill(dlogits.begin(), dlogits.end(), 0.f);
    std::fill(dvalues.begin(), dvalues.end(), 0.f);

    // Each action's dlogits row, ratio, clip, entropy and value error
    // depend on that action alone, so they run on the kernel pool into
    // per-action slots; the loss sums then add the slots in action order.
    struct ActionTerms {
      double pol = 0.0, val = 0.0, entropy = 0.0;
      bool clipped = false;
    };
    std::vector<ActionTerms> terms(actions.size());
    const bool want_entropy = cfg_.entropy_coef > 0.f || epoch == 0;
    const std::size_t work = static_cast<std::size_t>(want_entropy ? 32 : 4) * V;
    kern::parallel_ranges(static_cast<int>(actions.size()), work,
                          [&](int i0, int i1) {
      for (auto i = static_cast<std::size_t>(i0);
           i < static_cast<std::size_t>(i1); ++i) {
        const Action& a = actions[i];
        ActionTerms& out = terms[i];
        const float logp_new = policy_.logprob(a.b, a.t_logits, a.token);
        const float ratio = std::exp(logp_new - a.logp_old);
        const float lo = 1.f - cfg_.clip, hi = 1.f + cfg_.clip;
        const float unclipped = ratio * adv[i];
        const float clippedv = std::clamp(ratio, lo, hi) * adv[i];
        out.pol = -std::min(unclipped, clippedv);
        const bool clip_active = ratio < lo || ratio > hi;
        out.clipped = clip_active;
        // Gradient flows only through the unclipped branch when it is the
        // min (or when clipping is inactive, where both branches coincide).
        float g = 0.f;
        if (unclipped <= clippedv || !clip_active) {
          g = -inv_n * ratio * adv[i];  // dL/dlogp_new
        }
        const float* pr = policy_.probs() + i * V;
        float* dl = dlogits.data() + i * V;
        if (g != 0.f) {
          for (int v = 0; v < V; ++v) dl[v] += g * -pr[v];
          dl[a.token] += g;
        }
        // Entropy bonus: maximizing H adds entropy_coef * p_v*(log p_v + H)
        // to dL/dlogit_v (loss carries -entropy_coef * H).
        if (want_entropy) {
          double h = 0.0;
          for (int v = 0; v < V; ++v) {
            if (pr[v] > 1e-12f) h -= pr[v] * std::log(pr[v]);
          }
          out.entropy = h;
          if (cfg_.entropy_coef > 0.f) {
            const auto hf = static_cast<float>(h);
            for (int v = 0; v < V; ++v) {
              if (pr[v] > 1e-12f) {
                dl[v] += cfg_.entropy_coef * inv_n * pr[v] *
                         (std::log(pr[v]) + hf);
              }
            }
          }
        }
        // Value loss on the same positions.
        const float verr = policy_.values()[i] - returns[i];
        out.val = 0.5 * verr * verr;
        dvalues[i] += cfg_.vf_coef * verr * inv_n;
      }
    });
    double pol_loss = 0.0, val_loss = 0.0, entropy_sum = 0.0;
    std::size_t clipped = 0;
    for (const ActionTerms& t : terms) {
      pol_loss += t.pol;
      val_loss += t.val;
      entropy_sum += t.entropy;
      clipped += t.clipped ? 1 : 0;
    }
    policy_.zero_grad();
    policy_.backward_from(tokens.data(), dlogits.data(), dvalues.data(), B, T);
    opt_.step(policy_.params(), policy_.grads());

    if (epoch == 0) {
      stats.policy_loss = static_cast<float>(pol_loss * inv_n);
      stats.value_loss = static_cast<float>(val_loss * inv_n);
      stats.clip_fraction =
          static_cast<float>(clipped) / static_cast<float>(actions.size());
      stats.mean_entropy = static_cast<float>(entropy_sum * inv_n);
    }
  }
  return stats;
}

}  // namespace chatfuzz::ml
