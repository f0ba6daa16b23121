// §V-A long-horizon table: coverage at the paper's 199K-test budget.
// Scaled: the substrate core saturates with far fewer tests than VCS
// RocketCore, so the bench runs `tests` per fuzzer and labels the scale
// (1 simulated test ≙ 199K / tests paper tests).
//
//   usage: tab_coverage_199k [tests]
#include <cstdio>

#include "bench_common.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 4000);
  print_header("SV-A: condition coverage at the 199K-test budget, RocketCore",
               "ChatFuzz 79.14% vs TheHuzz 76.7% at 199K tests");
  std::printf("campaign: %zu tests per fuzzer (1 simulated test = %.1f paper "
              "tests)\n\n", n, 199000.0 / static_cast<double>(n));

  core::CampaignConfig cfg = rocket_campaign(n);

  std::fprintf(stderr, "[199k] TheHuzz...\n");
  baselines::TheHuzzFuzzer huzz(41);
  const core::CampaignResult rh = core::run_campaign(huzz, cfg);

  std::fprintf(stderr, "[199k] ChatFuzz...\n");
  auto chat = make_chatfuzz();
  const core::CampaignResult rc = core::run_campaign(*chat, cfg);

  std::printf("%-10s | %-16s | %-16s\n", "fuzzer", "cond-cov (ours)",
              "cond-cov (paper)");
  std::printf("-----------+------------------+-----------------\n");
  std::printf("%-10s | %15.2f%% | %15.2f%%\n", "ChatFuzz",
              rc.final_cov_percent, 79.14);
  std::printf("%-10s | %15.2f%% | %15.2f%%\n", "TheHuzz",
              rh.final_cov_percent, 76.7);

  std::printf("\nshape check vs paper: ChatFuzz stays ahead at the long "
              "horizon, with a narrower gap than at 1.8K tests: %s\n",
              rc.final_cov_percent > rh.final_cov_percent ? "PASS" : "CHECK");
  return 0;
}
