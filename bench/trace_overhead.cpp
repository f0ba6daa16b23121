// Trace-overhead bench: the same single-worker campaign with tracing and
// stats export off vs on (spans recorded to per-thread rings, Chrome trace
// JSON written to <trace.json>, NDJSON to <trace.json>.ndjson). Campaign
// results must be bit-identical both ways (parity_ok; telemetry is
// out-of-band by contract, or the overhead number is meaningless), and the
// one JSON line on stdout reports trace_overhead_percent, which CI holds
// under its budget. The exported trace loads in ui.perfetto.dev.
//
//   usage: trace_overhead [--smoke] <trace.json>
//
// --smoke shrinks the campaign to CI size (96 tests, one round). Each side
// of a smoke comparison is then one campaign of about 15 ms, and the
// percentage moves by tens of points from run to run; README says more.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "baselines/mutational.h"
#include "core/campaign.h"

using namespace chatfuzz;

namespace {

core::CampaignResult timed_run(const core::CampaignConfig& cfg,
                               double* seconds) {
  baselines::RandomFuzzer gen(7);
  const auto t0 = std::chrono::steady_clock::now();
  core::CampaignResult r = core::run_campaign(gen, cfg);
  *seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, bad = false;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (trace_path == nullptr && argv[i][0] != '-') trace_path = argv[i];
    else bad = true;
  }
  if (bad || trace_path == nullptr) {
    std::fprintf(stderr, "usage: %s [--smoke] <trace.json>\n", argv[0]);
    return 2;
  }

  core::CampaignConfig cfg;
  cfg.num_tests = smoke ? 96 : 1024;
  cfg.batch_size = 32;
  cfg.num_workers = 1;  // per-pipeline cost, no threading
  cfg.checkpoint_every = 100;
  cfg.platform.max_steps = 2048;

  // Warm the pipeline before any timed run.
  {
    core::CampaignConfig warm = cfg;
    warm.num_tests = smoke ? 32 : 128;
    double ignored = 0.0;
    timed_run(warm, &ignored);
  }

  core::CampaignConfig traced_cfg = cfg;
  traced_cfg.trace_path = trace_path;
  traced_cfg.stats_path = std::string(trace_path) + ".ndjson";
  traced_cfg.stats_every_ms = 0;  // worst case: NDJSON line every batch

  // Interleaved pairs, best-of wall times: the ratio is the payload, and
  // the minimum damps scheduler noise.
  double dt_plain = 1e30, dt_traced = 1e30;
  core::CampaignResult plain, traced;
  const int rounds = smoke ? 1 : 3;
  for (int i = 0; i < rounds; ++i) {
    double dt = 0.0;
    plain = timed_run(cfg, &dt);
    dt_plain = std::min(dt_plain, dt);
    traced = timed_run(traced_cfg, &dt);
    dt_traced = std::min(dt_traced, dt);
  }

  const bool parity_ok =
      traced.tests_run == plain.tests_run &&
      traced.final_cov_percent == plain.final_cov_percent &&
      traced.total_cycles == plain.total_cycles &&
      traced.total_instrs == plain.total_instrs &&
      traced.raw_mismatches == plain.raw_mismatches &&
      traced.filtered_mismatches == plain.filtered_mismatches &&
      traced.unique_mismatches == plain.unique_mismatches;

  const double tps_plain = static_cast<double>(plain.tests_run) / dt_plain;
  const double tps_traced = static_cast<double>(traced.tests_run) / dt_traced;
  std::printf(
      "{\"bench\":\"trace_overhead\",\"smoke\":%s,"
      "\"tests\":%zu,\"workers\":1,"
      "\"tests_per_sec\":%.1f,\"wall_seconds\":%.3f,"
      "\"tests_per_sec_traced\":%.1f,\"wall_seconds_traced\":%.3f,"
      "\"trace_overhead_percent\":%.2f,"
      "\"final_cov_percent\":%.4f,\"parity_ok\":%s}\n",
      smoke ? "true" : "false", plain.tests_run, tps_plain, dt_plain,
      tps_traced, dt_traced, 100.0 * (dt_traced / dt_plain - 1.0),
      plain.final_cov_percent, parity_ok ? "true" : "false");
  return parity_ok ? 0 : 1;
}
