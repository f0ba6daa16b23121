// Figure 2 reproduction: condition coverage of ChatFuzz vs. TheHuzz over a
// 24-hour RocketCore campaign. The paper's DUT (VCS-compiled RocketCore,
// ~47K condition bins) needs ~50K tests to saturate; our substrate core has
// ~700 bins, so one simulated test stands for `scale` paper tests and the
// series is mapped onto the paper's hour axis accordingly (see
// EXPERIMENTS.md for the scale model).
//
//   usage: fig2_coverage_over_time [tests_per_fuzzer]
#include <cstdio>
#include <map>

#include "bench_common.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 3000);
  print_header("Fig. 2: condition coverage over time, RocketCore (24 h)",
               "ChatFuzz reaches ~75% within the first hour; TheHuzz needs "
               "~30 h; both start near 50% and end 77-80%");

  // Map the simulated campaign onto the paper's 24-hour axis.
  const double paper_tests_24h = kPaperTestsPerHour * 24.0;
  const double scale = paper_tests_24h / static_cast<double>(n);
  std::printf("campaign: %zu tests per fuzzer; 1 simulated test = %.1f paper "
              "tests\n\n", n, scale);

  core::CampaignConfig cfg = rocket_campaign(n);
  cfg.checkpoint_every = n / 48;  // one point per paper half-hour

  std::fprintf(stderr, "[fig2] running TheHuzz campaign...\n");
  baselines::TheHuzzFuzzer huzz(11);
  const core::CampaignResult rh = core::run_campaign(huzz, cfg);

  std::fprintf(stderr, "[fig2] running ChatFuzz campaign...\n");
  auto chat = make_chatfuzz();
  const core::CampaignResult rc = core::run_campaign(*chat, cfg);

  // Merge the two curves onto the common hour axis.
  std::printf("%-10s | %-18s | %-18s\n", "paper-hrs", "ChatFuzz cond-cov",
              "TheHuzz cond-cov");
  std::printf("-----------+--------------------+-------------------\n");
  const std::size_t points = std::min(rc.curve.size(), rh.curve.size());
  for (std::size_t i = 0; i < points; ++i) {
    const double hours =
        static_cast<double>(rc.curve[i].tests) * scale / kPaperTestsPerHour;
    std::printf("%9.2f  | %17.2f%% | %17.2f%%\n", hours,
                rc.curve[i].cond_cov_percent, rh.curve[i].cond_cov_percent);
  }

  std::printf("\nfinal: ChatFuzz %.2f%%  TheHuzz %.2f%%\n",
              rc.final_cov_percent, rh.final_cov_percent);
  const double early = rc.curve[points / 24].cond_cov_percent;  // ~1st hour
  std::printf("shape check vs paper: ChatFuzz within the first paper-hour "
              "(%.2f%%) already exceeds TheHuzz at paper-hour 8 (%.2f%%): %s\n",
              early, rh.curve[std::min(points - 1, points / 3)].cond_cov_percent,
              early >= rh.curve[std::min(points - 1, points / 3)].cond_cov_percent
                  ? "PASS" : "CHECK");
  return 0;
}
