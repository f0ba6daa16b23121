// The per-worker simulation stack of the campaign engine, factored out of
// campaign.cpp so that both execution backends share one definition of "run
// one test and record what it contributed":
//
//   * the in-process thread pool (core/campaign.cpp), where a SimStack is a
//     worker thread's private models, and
//   * the multi-process subsystem (src/dist/), where a worker *process*
//     owns a pool of SimStacks and streams TestArtifacts back to the
//     coordinator over the wire.
//
// Everything here preserves the engine's determinism contract: a
// TestArtifact depends only on (program, campaign seed, global test index)
// plus, for the ctrl-reg recorder, the set of states the same stack
// reported for *lower-indexed* tests — which is why any scheduler driving
// run_one() must hand each stack its tests in increasing global order (the
// thread pools claim through a shared counter; the dist worker resets the
// dedup set at every lease boundary, see dist/worker.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/campaign.h"
#include "coverage/merge.h"
#include "coverage/multi.h"
#include "isasim/sim.h"
#include "mismatch/detect.h"
#include "mismatch/lockstep.h"
#include "rtlsim/core.h"
#include "rtlsim/dut.h"

namespace chatfuzz::core {

/// Everything one simulated test contributes to campaign state. Artifacts
/// are pooled: the engine keeps one per batch slot alive for the whole
/// campaign, and begin() re-arms it without giving back vector capacity, so
/// the steady-state batch loop performs no per-test allocation.
struct TestArtifact {
  std::vector<cov::BinDelta> cond_bins;     // condition-coverage slice
  std::vector<std::uint64_t> ctrl_states;   // ctrl states new to the worker
  std::vector<std::size_t> toggle_bins, fsm_bins, stmt_bins;
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;
  mismatch::Report report;                  // per-test commit-stream diff

  void begin() {
    cond_bins.clear();
    ctrl_states.clear();
    toggle_bins.clear();
    fsm_bins.clear();
    stmt_bins.clear();
    cycles = 0;
    steps = 0;
    report.mismatches.clear();
    report.raw_count = 0;
    report.filtered_count = 0;
  }
};

/// One worker's private simulation stack, reused across batches. The ctrl
/// coverage set inside `dut` deliberately accumulates: a stack only reports
/// states it has not reported before, and as long as the stack's tests
/// arrive in increasing global order, the canonical-order replay on the
/// coordinator sees every state at exactly the first test a sequential run
/// would. Schedulers that cannot keep that order monotone across work units
/// (lease reassignment in dist mode) reset the set at unit boundaries —
/// over-reporting is folded out by the coordinator, under-reporting is not.
struct SimStack {
  SimStack(const CampaignConfig& cfg, bool use_suite);

  cov::CoverageDB db;        // per-test shard (reset before every test)
  cov::MetricSuite suite;
  /// The campaign's DUT backends, in effective_duts() order — all registered
  /// into the one shard `db`, so the shard layout is the concatenation of
  /// every backend's instrumentation (and matches the coordinator's
  /// registrar DB, built from the same list). Single-DUT campaigns hold one
  /// entry here.
  std::vector<std::unique_ptr<rtl::DutCore>> duts;
  /// Non-owning alias of duts[0]: the primary DUT (metrics suite, step
  /// totals — and the only DUT of a classic single-DUT campaign).
  rtl::DutCore* dut = nullptr;
  std::unique_ptr<sim::IsaSim> golden;
  mismatch::MismatchDetector detector;  // filter rules only; the campaign-
                                        // wide tally lives on the coordinator
  mismatch::LockstepComparator comparator;
  sim::DiscardSink discard;
};

/// Whether this configuration attaches the toggle/FSM/statement suite.
bool campaign_uses_metric_suite(const CampaignConfig& cfg);

/// The guidance metric selected by the config, as the uniform Metric view
/// (null for condition/ctrl-reg, which have dedicated plumbing).
const cov::Metric* select_guidance_metric(const cov::MetricSuite& suite,
                                          GuidanceMetric g);

/// The selected guidance metric's per-test bins within an artifact.
const std::vector<std::size_t>& guide_test_bins(const TestArtifact& art,
                                                GuidanceMetric g);

/// Simulate one test, streaming. The DUT's commit stream feeds the lockstep
/// comparator (which pulls the golden model one instruction at a time and
/// stops it as soon as the comparison is decided) or a discard sink when
/// mismatch detection is off — no trace is materialized on either side, and
/// every coverage sweep runs over this test's dirty-bin journals, not the
/// whole instrumentation layout.
void run_one(SimStack& w, const CampaignConfig& cfg, bool use_suite,
             const Program& test, std::uint64_t test_index, TestArtifact& out);

/// Simulate `tests[0..count)` (global indices base_index + i) across the
/// stack pool into `artifacts[0..count)`. Threads claim tests through a
/// shared counter, so each stack's tests are in increasing global order —
/// the ctrl-recorder invariant both engines rely on. The first exception
/// thrown on any thread is rethrown here after the join (a throw must
/// neither vanish via std::terminate nor leave joinable threads behind).
/// Shared by the in-process batch engine and the dist worker's lease loop.
void run_span(std::vector<std::unique_ptr<SimStack>>& stacks,
              const CampaignConfig& cfg, bool use_suite, const Program* tests,
              std::size_t count, std::uint64_t base_index,
              TestArtifact* artifacts);

}  // namespace chatfuzz::core
