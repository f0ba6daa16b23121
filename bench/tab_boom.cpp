// §V-A BOOM result: ChatFuzz reaches 97.02% condition coverage on the
// BOOM-class core in 49 minutes. The bench runs ChatFuzz (and TheHuzz for
// reference) on the BOOM configuration and reports coverage at the
// 49-minute-equivalent test budget and at the end of the campaign.
//
//   usage: tab_boom [tests]
#include <cstdio>

#include "bench_common.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 2000);
  print_header("SV-A: BOOM campaign",
               "ChatFuzz reaches 97.02% condition coverage in 49 minutes");

  core::CampaignConfig cfg = rocket_campaign(n);
  cfg.core = rtl::CoreConfig::boom();
  cfg.checkpoint_every = std::max<std::size_t>(n / 50, 10);

  std::fprintf(stderr, "[boom] ChatFuzz...\n");
  auto chat = make_chatfuzz();
  const core::CampaignResult rc = core::run_campaign(*chat, cfg);

  std::fprintf(stderr, "[boom] TheHuzz (reference)...\n");
  baselines::TheHuzzFuzzer huzz(51);
  const core::CampaignResult rh = core::run_campaign(huzz, cfg);

  // Coverage at the 49-paper-minute test budget.
  const auto tests_49min =
      static_cast<std::size_t>(kPaperTestsPerHour * 49.0 / 60.0);
  double at_49 = 0.0;
  for (const auto& p : rc.curve) {
    if (p.tests <= tests_49min) at_49 = p.cond_cov_percent;
  }

  std::printf("%-22s | %-10s | %s\n", "measurement", "ours", "paper");
  std::printf("-----------------------+------------+---------\n");
  std::printf("%-22s | %9.2f%% | 97.02%%\n",
              "ChatFuzz @ 49 min", at_49);
  std::printf("%-22s | %9.2f%% | (n/a)\n", "ChatFuzz final", rc.final_cov_percent);
  std::printf("%-22s | %9.2f%% | (n/a)\n", "TheHuzz final", rh.final_cov_percent);

  std::printf("\nshape check vs paper: BOOM saturates far higher than "
              "RocketCore and ChatFuzz reaches ~97%% within the 49-minute "
              "budget: %s\n", at_49 >= 90.0 ? "PASS" : "CHECK");
  return 0;
}
