// Fuzzer face-off: run every input generator (random regression, DifuzzRTL-
// style, TheHuzz-style, ChatFuzz) through identical campaigns on the
// RocketCore-class DUT and print the coverage table — a miniature of the
// paper's §V-A comparison.
//
//   $ ./examples/fuzz_campaign [num_tests]
#include <cstdio>
#include <cstdlib>

#include "baselines/mutational.h"
#include "core/campaign.h"
#include "core/chatfuzz.h"

using namespace chatfuzz;
using namespace chatfuzz::core;

int main(int argc, char** argv) {
  const std::size_t tests = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 600;

  CampaignConfig cfg;
  cfg.num_tests = tests;
  cfg.batch_size = 32;
  cfg.checkpoint_every = tests / 6;
  cfg.platform.max_steps = 512;

  std::printf("%zu tests per fuzzer on the RocketCore-class DUT\n\n", tests);
  std::printf("%-10s | %-9s | %-8s | %-9s | %s\n", "fuzzer", "cond-cov",
              "hours*", "raw-mm", "unique-mm");
  std::printf("-----------+-----------+----------+-----------+----------\n");

  auto row = [](const CampaignResult& r) {
    std::printf("%-10s | %7.2f%%  | %7.2f  | %8zu  | %zu\n", r.fuzzer.c_str(),
                r.final_cov_percent, r.hours, r.raw_mismatches,
                r.unique_mismatches);
  };

  {
    baselines::RandomFuzzer f(1);
    row(run_campaign(f, cfg));
  }
  {
    baselines::DifuzzRtlFuzzer f(1);
    row(run_campaign(f, cfg));
  }
  {
    baselines::TheHuzzFuzzer f(1);
    row(run_campaign(f, cfg));
  }
  {
    ChatFuzzConfig cc;
    ChatFuzzGenerator gen(cc);
    std::fprintf(stderr, "training ChatFuzz (stages 1-2)...\n");
    gen.train_offline();
    row(run_campaign(gen, cfg));
  }

  std::printf("\n* paper-equivalent wall-clock from the tests/hour scale "
              "model (README, \"What stands in for the paper's setup\"); "
              "DifuzzRTL runs at 3.33x cost per test.\n");
  return 0;
}
