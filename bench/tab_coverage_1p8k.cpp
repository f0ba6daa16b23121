// §V-A headline table: condition coverage after 1.8K tests with equal
// instruction counts per test — the paper's equal-budget comparison point.
//
//   usage: tab_coverage_1p8k [tests]
#include <cstdio>

#include "bench_common.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 1800);
  print_header(
      "SV-A: condition coverage at 1.8K tests, RocketCore",
      "ChatFuzz 74.96% vs TheHuzz 67.4% (same test count, same instr count)");

  core::CampaignConfig cfg = rocket_campaign(n);

  std::fprintf(stderr, "[1p8k] TheHuzz...\n");
  baselines::TheHuzzFuzzer huzz(21);
  const core::CampaignResult rh = core::run_campaign(huzz, cfg);

  std::fprintf(stderr, "[1p8k] Random regression (reference)...\n");
  baselines::RandomFuzzer random(21);
  const core::CampaignResult rr = core::run_campaign(random, cfg);

  std::fprintf(stderr, "[1p8k] ChatFuzz...\n");
  auto chat = make_chatfuzz();
  const core::CampaignResult rc = core::run_campaign(*chat, cfg);

  std::printf("%-10s | %-16s | %-16s\n", "fuzzer", "cond-cov (ours)",
              "cond-cov (paper)");
  std::printf("-----------+------------------+-----------------\n");
  std::printf("%-10s | %15.2f%% | %15.2f%%\n", "ChatFuzz",
              rc.final_cov_percent, 74.96);
  std::printf("%-10s | %15.2f%% | %15.2f%%\n", "TheHuzz",
              rh.final_cov_percent, 67.4);
  std::printf("%-10s | %15.2f%% | %-16s\n", "Random", rr.final_cov_percent,
              "(not reported)");

  const double gap = rc.final_cov_percent - rh.final_cov_percent;
  std::printf("\nChatFuzz - TheHuzz gap: %+.2f points (paper: +7.56)\n", gap);
  std::printf("shape check vs paper: ChatFuzz > TheHuzz >= Random at equal "
              "test budget: %s\n",
              rc.final_cov_percent > rh.final_cov_percent &&
                      rh.final_cov_percent >= rr.final_cov_percent - 0.5
                  ? "PASS" : "CHECK");
  return 0;
}
