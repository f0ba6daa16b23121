// Interrupt-stimulus ablation: the RocketCore model's interrupt-pending
// condition points are unreachable under the paper's testbench (no CLINT
// stimulus — the realistic reason 24h campaigns plateau below 80%). This
// ablation attaches the CLINT device, gives the seed generator the kernel
// timer-arming idiom, and lets HyPFuzz's solver target the irq lines: the
// previously-dead points become coverable, raising the attainable ceiling.
//
//   usage: ablation_interrupts [tests]
#include <cstdio>

#include "baselines/hypfuzz.h"
#include "bench_common.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

namespace {

/// Count covered true-bins among irq.pending points after a campaign-like
/// run of the given generator (the campaign itself owns its DB, so re-run a
/// probe: HyPFuzz stats tell the story; here we just report cond-cov).
struct Cell {
  double cov = 0.0;
  std::size_t solved = 0;
  std::size_t unreachable = 0;
  std::size_t irq_uncovered = 0;  // irq.pending points missing the true bin
};

Cell run_cell(bool clint, std::size_t n) {
  core::CampaignConfig cfg = rocket_campaign(n);
  cfg.platform.clint_enabled = clint;
  cfg.mismatch_detection = false;
  baselines::HypFuzzConfig hcfg;
  hcfg.stagnation_batches = 1;
  baselines::HypFuzzer hyp(41, hcfg, cfg.platform);
  const core::CampaignResult res = core::run_campaign(hyp, cfg);
  Cell cell{res.final_cov_percent, hyp.solved_points(),
            hyp.unreachable_points(), 0};
  for (const cov::UncoveredPoint& up : res.uncovered) {
    if (up.name.starts_with("irq.pending") && up.missing_true) {
      ++cell.irq_uncovered;
    }
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 800);
  print_header(
      "Ablation: interrupt stimulus (CLINT) vs. coverage ceiling",
      "irq condition points are the unreachable tail without interrupt "
      "stimulus; DESIGN.md documents this as the plateau's cause");

  std::fprintf(stderr, "[irq] without CLINT...\n");
  const Cell off = run_cell(false, n);
  std::fprintf(stderr, "[irq] with CLINT...\n");
  const Cell on = run_cell(true, n);

  std::printf("%-14s | %-9s | %-13s | %-12s | %-14s\n", "stimulus",
              "cond-cov", "points solved", "unreachable", "irq uncovered");
  std::printf("---------------+-----------+---------------+--------------+---------------\n");
  std::printf("%-14s | %8.2f%% | %13zu | %12zu | %14zu\n", "none (paper)",
              off.cov, off.solved, off.unreachable, off.irq_uncovered);
  std::printf("%-14s | %8.2f%% | %13zu | %12zu | %14zu\n", "CLINT timer/sw",
              on.cov, on.solved, on.unreachable, on.irq_uncovered);

  std::printf("\nshape checks:\n");
  std::printf("  irq.pending lines become coverable:       %s (%zu -> %zu "
              "uncovered)\n",
              on.irq_uncovered < off.irq_uncovered ? "PASS" : "CHECK",
              off.irq_uncovered, on.irq_uncovered);
  std::printf("  fewer points classified unreachable:      %s (%zu -> %zu)\n",
              on.unreachable < off.unreachable ? "PASS" : "CHECK",
              off.unreachable, on.unreachable);
  std::printf("  total coverage not degraded (noise tol.): %s (%+.2f pts)\n",
              on.cov >= off.cov - 0.75 ? "PASS" : "CHECK", on.cov - off.cov);
  return 0;
}
