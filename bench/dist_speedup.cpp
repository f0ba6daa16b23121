// Distributed-campaign speedup bench: end-to-end tests/sec of the
// multi-process coordinator/worker subsystem (fuzz --procs) versus the
// single-process engine on the same seed, programs and config. The two runs
// must agree bit-for-bit (parity_ok — coverage percent, cycle/instruction
// totals, mismatch tallies, full curve), or the comparison is void; the
// dist run's whole point is that only wall-clock moves. Emits ONE line of
// JSON on stdout so successive runs append to a BENCH_dist.json trajectory
// file:
//
//   ./bench_dist_speedup [--smoke] [procs] >> BENCH_dist.json
//
// --smoke (or CHATFUZZ_SMOKE=1) shrinks the campaign to CI size; `procs`
// defaults to 2 (the acceptance point: >= 1.7x at 2 processes). The binary
// is its own worker: the coordinator re-execs it via /proc/self/exe as
// `worker --connect`, dialing back over loopback.
//
// --faults switches to the degradation bench: the same dist campaign runs
// once clean and once under a seeded hostile wire-fault schedule on the TCP
// transport (drops, truncations, corruptions, forged CRCs, duplicates,
// delays — workers redial, leases re-issue), and the line reports how much
// throughput the churn costs ({"bench":"dist_fault", ...} for a
// BENCH_dist_fault.json trajectory). Parity stays the hard gate: both runs
// must be bit-identical to the single-process engine or the exit code is 1.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "baselines/mutational.h"
#include "core/campaign.h"
#include "dist/worker.h"

using namespace chatfuzz;

namespace {

constexpr std::uint64_t kGenSeed = 11;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::CampaignResult timed_run(const core::CampaignConfig& cfg,
                               double* seconds) {
  baselines::RandomFuzzer gen(kGenSeed);
  const double t0 = now_sec();
  core::CampaignResult res = core::run_campaign(gen, cfg);
  *seconds = now_sec() - t0;
  return res;
}

bool identical(const core::CampaignResult& a, const core::CampaignResult& b) {
  if (a.tests_run != b.tests_run ||
      a.final_cov_percent != b.final_cov_percent ||  // bit-exact, no tol
      a.total_cycles != b.total_cycles ||
      a.total_instrs != b.total_instrs ||
      a.raw_mismatches != b.raw_mismatches ||
      a.unique_mismatches != b.unique_mismatches ||
      a.findings != b.findings || a.curve.size() != b.curve.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].tests != b.curve[i].tests ||
        a.curve[i].cond_cov_percent != b.curve[i].cond_cov_percent ||
        a.curve[i].ctrl_states != b.curve[i].ctrl_states) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker re-exec from the coordinator lands here first.
  if (const auto rc = dist::maybe_worker_main(argc, argv)) return *rc;

  bool smoke = std::getenv("CHATFUZZ_SMOKE") != nullptr;
  bool faults = false;
  std::size_t procs = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else {
      procs = static_cast<std::size_t>(std::strtoul(argv[i], nullptr, 10));
      if (procs < 2) procs = 2;
    }
  }

  core::CampaignConfig cfg;
  cfg.num_tests = smoke ? 1024 : 12'288;
  cfg.batch_size = 256;
  cfg.checkpoint_every = cfg.num_tests / 8;
  cfg.platform.max_steps = 512;
  cfg.num_workers = 1;  // threads per process: isolate the process axis

  // Warm-up: page in the model code and let the first-touch allocations
  // happen outside the timed windows.
  {
    core::CampaignConfig warm = cfg;
    warm.num_tests = smoke ? 64 : 256;
    double ignored;
    (void)timed_run(warm, &ignored);
  }

  double sec_1p = 0.0, sec_np = 0.0;
  const core::CampaignResult one = timed_run(cfg, &sec_1p);

  core::CampaignConfig dist_cfg = cfg;
  dist_cfg.dist.num_procs = procs;

  if (faults) {
    // Degradation cell: clean fleet vs the same fleet under a seeded
    // hostile schedule. Dropped workers redial, so the churn is survivable
    // by design rather than by budget.
    double sec_clean = 0.0, sec_fault = 0.0;
    const core::CampaignResult clean = timed_run(dist_cfg, &sec_clean);

    core::CampaignConfig fault_cfg = dist_cfg;
    fault_cfg.dist.fault.seed = 0xD15FA017;
    fault_cfg.dist.fault.max_faults = smoke ? 12 : 32;
    fault_cfg.dist.fault.p_drop = 24;
    fault_cfg.dist.fault.p_truncate = 12;
    fault_cfg.dist.fault.p_corrupt = 24;
    fault_cfg.dist.fault.p_wrong_crc = 12;
    fault_cfg.dist.fault.p_duplicate = 24;
    fault_cfg.dist.fault.p_delay = 48;
    const core::CampaignResult hurt = timed_run(fault_cfg, &sec_fault);

    const double tps_clean =
        static_cast<double>(clean.tests_run) / sec_clean;
    const double tps_fault = static_cast<double>(hurt.tests_run) / sec_fault;
    const bool parity = identical(one, clean) && identical(one, hurt);
    std::printf(
        "{\"bench\":\"dist_fault\",\"smoke\":%s,"
        "\"tests\":%zu,\"procs\":%zu,\"workers_per_proc\":1,"
        "\"fault_seed\":%llu,\"fault_budget\":%u,"
        "\"tests_per_sec_clean\":%.1f,\"wall_seconds_clean\":%.3f,"
        "\"tests_per_sec_faulted\":%.1f,\"wall_seconds_faulted\":%.3f,"
        "\"fault_throughput_ratio\":%.3f,"
        "\"final_cov_percent\":%.4f,\"raw_mismatches\":%zu,"
        "\"parity_ok\":%s}\n",
        smoke ? "true" : "false", one.tests_run, procs,
        static_cast<unsigned long long>(fault_cfg.dist.fault.seed),
        fault_cfg.dist.fault.max_faults, tps_clean, sec_clean, tps_fault,
        sec_fault, tps_fault / tps_clean, hurt.final_cov_percent,
        hurt.raw_mismatches, parity ? "true" : "false");
    return parity ? 0 : 1;
  }

  const core::CampaignResult fanned = timed_run(dist_cfg, &sec_np);

  const double tps_1p = static_cast<double>(one.tests_run) / sec_1p;
  const double tps_np = static_cast<double>(fanned.tests_run) / sec_np;
  const double speedup = tps_np / tps_1p;
  const bool parity_ok = identical(one, fanned);
  // The acceptance bar: >= 1.7x at 2 processes — which requires at least
  // two cores for the worker processes to actually run side by side (on a
  // single-core host the bench degenerates to measuring pure coordination
  // overhead, so the bar is waived there and `cores` tells the trajectory
  // reader why). Reported rather than asserted: CI hardware varies; the
  // hard gate is bit-level parity.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool speedup_ok = speedup >= 1.7 || procs != 2 || cores < 2;

  std::printf(
      "{\"bench\":\"dist_speedup\",\"smoke\":%s,"
      "\"tests\":%zu,\"procs\":%zu,\"workers_per_proc\":1,\"cores\":%u,"
      "\"tests_per_sec_1p\":%.1f,\"wall_seconds_1p\":%.3f,"
      "\"tests_per_sec_np\":%.1f,\"wall_seconds_np\":%.3f,"
      "\"dist_speedup\":%.2f,\"speedup_ok\":%s,"
      "\"final_cov_percent\":%.4f,\"raw_mismatches\":%zu,"
      "\"parity_ok\":%s}\n",
      smoke ? "true" : "false", one.tests_run, procs, cores, tps_1p, sec_1p,
      tps_np, sec_np, speedup, speedup_ok ? "true" : "false",
      fanned.final_cov_percent, fanned.raw_mismatches,
      parity_ok ? "true" : "false");
  return parity_ok ? 0 : 1;
}
