// Shared plumbing for the table/figure reproduction benches: the paper's
// wall-clock scale model, the trained ChatFuzz generator every bench binary
// uses, and table-printing helpers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "baselines/mutational.h"
#include "core/campaign.h"
#include "core/chatfuzz.h"
#include "util/parse.h"

namespace chatfuzz::bench {

/// Paper throughput (§V-A): ~1.8K tests in ~52 minutes on ten VCS instances
/// for both ChatFuzz and TheHuzz -> ~2077 tests/hour. All "hours" columns
/// convert test counts through this constant (DifuzzRTL pays its 3.33x
/// factor on top). Campaign *sizes* are scaled down for laptop runtime;
/// each bench prints its scale factor.
inline constexpr double kPaperTestsPerHour = 1800.0 / (52.0 / 60.0);

/// Build a ChatFuzz generator and train stages 1-2 at the benches' budget
/// (seconds of CPU, so every run trains its own model from this build).
inline std::unique_ptr<core::ChatFuzzGenerator> make_chatfuzz() {
  core::ChatFuzzConfig cfg;
  cfg.pretrain_samples = 1600;
  cfg.pretrain.epochs = 5;
  cfg.cleanup_iters = 8;
  auto gen = std::make_unique<core::ChatFuzzGenerator>(cfg);
  std::fprintf(stderr, "[bench] training ChatFuzz stages 1-2...\n");
  gen->train_offline();
  return gen;
}

/// Simulation worker threads for all bench campaigns, from CHATFUZZ_WORKERS
/// (default 1, "0" = all cores). Campaign results are bit-identical for any
/// value, so benches stay comparable across machines; only wall-clock moves.
/// A malformed value falls back to the default loudly rather than silently
/// meaning "all cores" — timing numbers must not be misattributed.
inline std::size_t bench_workers() {
  const char* env = std::getenv("CHATFUZZ_WORKERS");
  if (env == nullptr) return 1;
  const auto parsed = parse_count(env);
  if (!parsed) {
    std::fprintf(stderr,
                 "[bench] ignoring malformed CHATFUZZ_WORKERS=\"%s\" "
                 "(using 1 worker)\n",
                 env);
    return 1;
  }
  return *parsed;
}

/// The campaign size from argv[1], or `fallback` when it is absent. A
/// malformed or zero count prints a usage line and exits 2 before any
/// training or simulation starts.
inline std::size_t tests_arg(int argc, char** argv, std::size_t fallback) {
  if (argc < 2) return fallback;
  const auto parsed = parse_count(argv[1]);
  if (!parsed || *parsed == 0) {
    std::fprintf(stderr, "usage: %s [tests]  (a positive count; default %zu)\n",
                 argv[0], fallback);
    std::exit(2);
  }
  return *parsed;
}

inline core::CampaignConfig rocket_campaign(std::size_t tests) {
  core::CampaignConfig cfg;
  cfg.num_tests = tests;
  cfg.batch_size = 32;
  cfg.checkpoint_every = std::max<std::size_t>(tests / 40, 25);
  cfg.platform.max_steps = 512;
  cfg.tests_per_hour = kPaperTestsPerHour;
  cfg.num_workers = bench_workers();
  return cfg;
}

inline void print_header(const char* title, const char* paper_claim) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==================================================================\n");
}

}  // namespace chatfuzz::bench
