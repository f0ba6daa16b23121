// Shared declarations of the repository benchmark: named metrics, the
// clock, and the per-layer probes in layers.cpp that time calls into each
// module's public functions from outside the library.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/chatfuzz.h"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double median(std::vector<double> v);

/// Per-layer sums from replaying a sample of a campaign's programs on fresh
/// simulation stacks (layers.cpp). Per-test metrics divide by `tests`.
struct SimLayers {
  std::size_t tests = 0;
  double run_one_s = 0, dut_s = 0, ooo_s = 0, golden_s = 0;
  double apply_bins_s = 0, accumulate_s = 0;
  double encode_s = 0, decode_s = 0;
  std::size_t leased_tests = 0, lease_bytes = 0;
  std::uint64_t dut_steps = 0, golden_steps = 0, steps = 0, cycles = 0;
  std::uint64_t bins = 0, raw_mismatches = 0;
};

/// Replay `tests` under `cfg` (in-process, one stack) and time core::run_one,
/// each DUT backend of the campaign's DUT list, the golden ISS, the
/// fold-side calls and the dist wire encoding. `ooo_s` stays 0 when the
/// list has no out-of-order backend.
SimLayers measure_sim_layers(const chatfuzz::core::CampaignConfig& cfg,
                             const std::vector<chatfuzz::core::Program>& tests);

/// Median seconds per call of the ML layer's parts, and counts of the
/// sampled output. All zero for a workload that runs no ML.
struct MlLayer {
  double sample_s = 0, gen_step_s = 0, forward_s = 0, backward_s = 0;
  double adamw_s = 0, ppo_update_s = 0, pretrain_step_s = 0;
  std::size_t tokens = 0, words = 0, valid_words = 0;
};

/// Time the ML layer at the ChatFuzz campaign shape (32 prompts, the
/// configured sampler, PPO config and pretraining shape) on copies of
/// `policy`, `reps` times each after one warm-up call.
MlLayer measure_ml_layer(const chatfuzz::core::ChatFuzzConfig& cc,
                         const chatfuzz::ml::Gpt& policy, std::uint64_t seed,
                         int reps);

/// Append the ml.* metrics.
void report_ml_layer(const MlLayer& L, Metrics& out);

}  // namespace bench
