// §V-B reproduction: the findings pipeline. A ChatFuzz campaign with
// differential testing against the golden model must (a) produce thousands
// of raw mismatches, (b) dedup them to a small unique set automatically, and
// (c) surface all five of the paper's findings: Bug1 (CWE-1202 cache
// coherency), Bug2 (CWE-440 tracer), and Findings 1-3 (ISA deviations).
//
//   usage: tab_findings [tests]
#include <cstdio>

#include "bench_common.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 2500);
  print_header("SV-B: mismatches and findings, RocketCore",
               "5,866 raw mismatches -> >100 unique after automated "
               "filtration; Bug1 (CWE-1202), Bug2 (CWE-440), Findings 1-3");

  core::CampaignConfig cfg = rocket_campaign(n);

  std::fprintf(stderr, "[findings] ChatFuzz campaign with differential "
                       "testing...\n");
  auto chat = make_chatfuzz();
  const core::CampaignResult r = core::run_campaign(*chat, cfg);

  std::printf("%-34s | %-10s | %s\n", "measurement", "ours", "paper");
  std::printf("-----------------------------------+------------+-----------\n");
  std::printf("%-34s | %10zu | 5,866\n", "raw mismatch records", r.raw_mismatches);
  std::printf("%-34s | %10zu | (filters)\n", "filtered false positives",
              r.filtered_mismatches);
  std::printf("%-34s | %10zu | >100\n", "unique mismatches after dedup",
              r.unique_mismatches);
  std::printf("%-34s | %10.1fx | ~50x\n", "dedup compression",
              r.unique_mismatches > 0
                  ? static_cast<double>(r.raw_mismatches) /
                        static_cast<double>(r.unique_mismatches)
                  : 0.0);

  std::printf("\nfindings detected:\n");
  const mismatch::Finding expected[5] = {
      mismatch::Finding::kBug1CacheCoherency,
      mismatch::Finding::kBug2TracerMulDiv,
      mismatch::Finding::kF1ExceptionPriority,
      mismatch::Finding::kF2AmoIntoX0,
      mismatch::Finding::kF3X0TraceWrite,
  };
  int found = 0;
  for (const mismatch::Finding f : expected) {
    const bool hit = r.findings.count(f) != 0;
    found += hit ? 1 : 0;
    std::printf("  [%s] %s\n", hit ? "x" : " ", mismatch::finding_name(f));
  }
  std::printf("\nshape check vs paper: all five findings surfaced by the "
              "fuzzing campaign alone: %s (%d/5)\n",
              found == 5 ? "PASS" : "CHECK", found);
  return 0;
}
