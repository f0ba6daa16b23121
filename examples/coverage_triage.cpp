// Coverage triage: the verification-engineer workflow around the fuzzer.
// Runs several independent fuzzing shards (the paper runs ten VCS instances),
// merges their coverage, writes the VCS-style report, and prints the
// remaining uncovered condition points — the "what should the next test hit"
// view that drives directed-test writing.
//
//   $ ./examples/coverage_triage [tests_per_shard] [shards]
#include <cstdio>
#include <cstdlib>

#include "baselines/mutational.h"
#include "coverage/merge.h"
#include "isasim/platform.h"
#include "rtlsim/core.h"

using namespace chatfuzz;

namespace {

/// One fuzzing shard: its own DB, core, and seed.
void run_shard(cov::CoverageDB& db, std::uint64_t seed, std::size_t tests) {
  sim::Platform plat;
  plat.max_steps = 512;
  rtl::RtlCore core(rtl::CoreConfig::rocket(), db, plat);
  baselines::TheHuzzFuzzer fuzzer(seed);
  cov::CoverageCalculator calc(db);
  std::size_t done = 0;
  while (done < tests) {
    const auto batch = fuzzer.next_batch(32);
    std::vector<cov::TestCoverage> tcs;
    std::vector<std::uint64_t> ctrl;
    for (const auto& t : batch) {
      calc.begin_test();
      core.ctrl_cov().begin_test();
      core.reset(t);
      core.run();
      tcs.push_back(calc.end_test());
      ctrl.push_back(core.ctrl_cov().test_new_states());
      ++done;
    }
    core::Feedback fb;
    fb.batch = &batch;
    fb.coverages = &tcs;
    fb.ctrl_new_states = &ctrl;
    fuzzer.feedback(fb);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t tests = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 400;
  const std::size_t shards = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;

  std::printf("running %zu shards x %zu tests (TheHuzz-style engine)...\n",
              shards, tests);
  std::vector<cov::CoverageDB> dbs(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    run_shard(dbs[s], 1000 + s, tests);
    std::printf("  shard %zu: %.2f%% condition coverage\n", s,
                dbs[s].total_percent());
  }

  // Merge everything into shard 0's DB (identical registrations).
  for (std::size_t s = 1; s < shards; ++s) {
    if (!cov::merge_into(dbs[0], dbs[s])) {
      std::fprintf(stderr, "merge failed: shard %zu has a different DUT\n", s);
      return 1;
    }
  }
  std::printf("merged:   %.2f%% condition coverage\n\n", dbs[0].total_percent());

  const auto uncovered = cov::uncovered_points(dbs[0]);
  std::printf("uncovered condition points (%zu):\n", uncovered.size());
  std::size_t shown = 0;
  for (const auto& u : uncovered) {
    std::printf("  %-44s missing:%s%s\n", u.name.c_str(),
                u.missing_true ? " true-bin" : "",
                u.missing_false ? " false-bin" : "");
    if (++shown >= 25) {
      std::printf("  ... and %zu more\n", uncovered.size() - shown);
      break;
    }
  }

  const std::string report = cov::format_report(dbs[0]);
  std::printf("\nreport: %zu bytes of VCS-style COND lines; first two:\n",
              report.size());
  std::size_t at = report.find("COND");
  for (int i = 0; i < 2 && at != std::string::npos; ++i) {
    const std::size_t end = report.find('\n', at);
    std::printf("  %s\n", report.substr(at, end - at).c_str());
    at = report.find("COND", end);
  }
  return 0;
}
