// Ablation: stage-3 reward shaping (§IV-C3). The paper's reward combines
// incremental coverage (bonus), stand-alone coverage, and a penalty for
// generations that improve nothing. This bench knocks each term out and
// measures the coverage impact at an equal test budget.
//
//   usage: ablation_reward [tests]
#include <cstdio>

#include "bench_common.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

namespace {
core::CampaignResult run_variant(const char* label,
                                 core::ChatFuzzConfig cc,
                                 const core::CampaignConfig& cfg) {
  core::ChatFuzzGenerator gen(cc);
  std::fprintf(stderr, "[ablation] training for %s...\n", label);
  gen.train_offline();
  return core::run_campaign(gen, cfg);
}
}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 600);
  print_header("Ablation: stage-3 coverage reward terms",
               "SIV-C3: reward = incremental bonus + stand-alone term - "
               "no-improvement penalty (+ validity shaping)");

  const core::CampaignConfig cfg = rocket_campaign(n);
  std::printf("%-26s | %-10s\n", "reward variant", "cond-cov");
  std::printf("---------------------------+-----------\n");

  {
    core::ChatFuzzConfig cc;  // full shaping (paper configuration)
    const auto r = run_variant("full reward", cc, cfg);
    std::printf("%-26s | %8.2f%%\n", "full (paper)", r.final_cov_percent);
  }
  {
    core::ChatFuzzConfig cc;
    cc.w_incremental = 0.0;  // no bonus for new coverage
    const auto r = run_variant("no incremental bonus", cc, cfg);
    std::printf("%-26s | %8.2f%%\n", "no incremental bonus",
                r.final_cov_percent);
  }
  {
    core::ChatFuzzConfig cc;
    cc.no_improvement_penalty = 0.0;
    const auto r = run_variant("no penalty", cc, cfg);
    std::printf("%-26s | %8.2f%%\n", "no no-improvement penalty",
                r.final_cov_percent);
  }
  {
    core::ChatFuzzConfig cc;
    cc.invalid_penalty = 0.0;  // language free to decay during stage 3
    const auto r = run_variant("no validity shaping", cc, cfg);
    std::printf("%-26s | %8.2f%%\n", "no validity shaping",
                r.final_cov_percent);
  }

  std::printf("\nthe full reward should be at or near the top; large drops "
              "show which term carries the steering signal.\n");
  return 0;
}
