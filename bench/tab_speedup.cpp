// §V-A speed table: time for each fuzzer to reach the coverage level
// ChatFuzz attains in its first paper-hour. The paper reports ChatFuzz at
// 75% in 52 min vs ~30 h for TheHuzz (34.6x), and TheHuzz ~3.33x faster
// than DifuzzRTL overall.
//
//   usage: tab_speedup [tests_per_fuzzer]
#include <cstdio>

#include "bench_common.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 3000);
  print_header("SV-A: time to ChatFuzz's one-hour coverage level",
               "ChatFuzz 75% in 52 min; TheHuzz ~30 h (34.6x slower); "
               "TheHuzz ~3.33x faster than DifuzzRTL");

  core::CampaignConfig cfg = rocket_campaign(n);
  cfg.checkpoint_every = std::max<std::size_t>(n / 200, 10);

  std::fprintf(stderr, "[speedup] ChatFuzz...\n");
  auto chat = make_chatfuzz();
  const core::CampaignResult rc = core::run_campaign(*chat, cfg);

  std::fprintf(stderr, "[speedup] TheHuzz...\n");
  baselines::TheHuzzFuzzer huzz(31);
  const core::CampaignResult rh = core::run_campaign(huzz, cfg);

  std::fprintf(stderr, "[speedup] DifuzzRTL...\n");
  baselines::DifuzzRtlFuzzer difuzz(31);
  const core::CampaignResult rd = core::run_campaign(difuzz, cfg);

  // Threshold: ChatFuzz's coverage after one paper-hour of tests.
  const std::size_t hour_tests =
      static_cast<std::size_t>(kPaperTestsPerHour);
  double threshold = 0.0;
  for (const auto& p : rc.curve) {
    if (p.tests <= hour_tests) threshold = p.cond_cov_percent;
  }
  std::printf("threshold: ChatFuzz coverage after ~1 paper-hour of tests "
              "(%zu tests) = %.2f%%\n\n", hour_tests, threshold);

  auto row = [&](const core::CampaignResult& r) {
    const double h = r.hours_to(threshold);
    std::printf("%-10s | ", r.fuzzer.c_str());
    if (h >= 0) {
      std::printf("%8.2f h (at %6zu tests)\n", h, r.tests_to(threshold));
    } else {
      std::printf("   not reached within %zu tests (max %.2f%%)\n",
                  r.tests_run, r.final_cov_percent);
    }
  };
  std::printf("%-10s | time to %.2f%% cond-cov\n", "fuzzer", threshold);
  std::printf("-----------+------------------------------------\n");
  row(rc);
  row(rh);
  row(rd);

  const double tc = rc.hours_to(threshold);
  const double th = rh.hours_to(threshold);
  const double td = rd.hours_to(threshold);
  if (tc > 0 && th > 0) {
    std::printf("\nChatFuzz speedup over TheHuzz:   %.1fx (paper: 34.6x)\n",
                th / tc);
  } else if (tc > 0) {
    std::printf("\nChatFuzz speedup over TheHuzz:   >%.1fx (TheHuzz never "
                "reached the threshold; paper: 34.6x)\n",
                rh.hours / tc);
  }
  if (th > 0 && td > 0) {
    std::printf("TheHuzz speedup over DifuzzRTL:  %.2fx (paper: ~3.33x)\n",
                td / th);
  }
  return 0;
}
