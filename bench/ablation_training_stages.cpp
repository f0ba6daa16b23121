// Ablation: how much does each training stage contribute? (DESIGN.md §
// "three-step pipeline"). Compares coverage of the fuzzing loop driven by
// (a) an untrained model, (b) the stage-1 pretrained model, and (c) the
// stage-1+2 cleaned model, at an equal test budget — the evidence behind the
// paper's claim that each stage is load-bearing.
//
//   usage: ablation_training_stages [tests]
#include <cstdio>

#include "bench_common.h"
#include "riscv/disasm.h"

using namespace chatfuzz;
using namespace chatfuzz::bench;

namespace {
double invalid_rate(core::ChatFuzzGenerator& gen) {
  std::size_t total = 0, invalid = 0;
  for (const auto& p : gen.next_batch(32)) {
    const riscv::DisasmAudit a = riscv::audit(p);
    total += a.total;
    invalid += a.invalid;
  }
  return total > 0 ? static_cast<double>(invalid) / static_cast<double>(total)
                   : 1.0;
}
}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = tests_arg(argc, argv, 600);
  print_header("Ablation: contribution of each training stage",
               "implied by SIII-B: stage 1 teaches the language, stage 2 "
               "removes invalid generations, stage 3 steers coverage");

  const core::CampaignConfig cfg = rocket_campaign(n);
  std::printf("%-22s | %-13s | %-10s\n", "generator", "invalid-rate",
              "cond-cov");
  std::printf("-----------------------+---------------+-----------\n");

  {  // (a) untrained
    core::ChatFuzzConfig cc;
    core::ChatFuzzGenerator gen(cc);
    const double inv = invalid_rate(gen);
    const core::CampaignResult r = core::run_campaign(gen, cfg);
    std::printf("%-22s | %12.1f%% | %8.2f%%\n", "untrained", 100.0 * inv,
                r.final_cov_percent);
  }
  {  // (b) stage 1 only
    core::ChatFuzzConfig cc;
    cc.pretrain_samples = 1200;
    cc.pretrain.epochs = 4;
    cc.cleanup_iters = 0;
    core::ChatFuzzGenerator gen(cc);
    std::fprintf(stderr, "[ablation] training stage 1...\n");
    gen.train_offline();
    const double inv = invalid_rate(gen);
    const core::CampaignResult r = core::run_campaign(gen, cfg);
    std::printf("%-22s | %12.1f%% | %8.2f%%\n", "stage 1 (pretrain)",
                100.0 * inv, r.final_cov_percent);
  }
  {  // (c) stages 1+2 (the shipping configuration)
    auto gen = make_chatfuzz();
    const double inv = invalid_rate(*gen);
    const core::CampaignResult r = core::run_campaign(*gen, cfg);
    std::printf("%-22s | %12.1f%% | %8.2f%%\n", "stages 1+2 (+3 online)",
                100.0 * inv, r.final_cov_percent);
  }

  std::printf("\nexpected ordering: invalid-rate strictly falls per stage and "
              "coverage strictly rises.\n");
  return 0;
}
