#include "core/sim_worker.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/sim_counters.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace chatfuzz::core {

SimStack::SimStack(const CampaignConfig& cfg, bool use_suite) {
  // Construction order IS the coverage-DB layout: every backend registers
  // its condition points into the shared shard as it is built, so this loop
  // must walk effective_duts() in list order — the same walk the
  // coordinator's registrar and the dist workers perform.
  for (const rtl::CoreConfig& core : effective_duts(cfg)) {
    duts.push_back(rtl::make_dut(core, db, cfg.platform));
    duts.back()->set_superblocks(cfg.superblocks);
  }
  dut = duts.front().get();
  golden = std::make_unique<sim::IsaSim>(cfg.platform);
  golden->set_superblocks(cfg.superblocks);
  if (use_suite) dut->attach_metrics(&suite);
  detector.install_default_filters();
}

bool campaign_uses_metric_suite(const CampaignConfig& cfg) {
  return cfg.collect_multi_metrics ||
         cfg.guidance == GuidanceMetric::kToggle ||
         cfg.guidance == GuidanceMetric::kStatement ||
         cfg.guidance == GuidanceMetric::kFsm;
}

const cov::Metric* select_guidance_metric(const cov::MetricSuite& suite,
                                          GuidanceMetric g) {
  switch (g) {
    case GuidanceMetric::kToggle: return &suite.toggle();
    case GuidanceMetric::kStatement: return &suite.statement();
    case GuidanceMetric::kFsm: return &suite.fsm();
    default: return nullptr;
  }
}

const std::vector<std::size_t>& guide_test_bins(const TestArtifact& art,
                                                GuidanceMetric g) {
  switch (g) {
    case GuidanceMetric::kStatement: return art.stmt_bins;
    case GuidanceMetric::kFsm: return art.fsm_bins;
    default: return art.toggle_bins;
  }
}

namespace {

/// Drain a simulator's per-test telemetry tallies into the process-wide
/// registry. Counter handles resolve once per process (the names never
/// change), so the per-test cost is six relaxed atomic adds.
void flush_sim_counters(const obs::SimCounters& c) {
  static obs::Counter* const pd_hits = obs::counter("sim.predecode_hits");
  static obs::Counter* const pd_misses = obs::counter("sim.predecode_misses");
  static obs::Counter* const tlb_hits = obs::counter("sim.tlb_hits");
  static obs::Counter* const tlb_misses = obs::counter("sim.tlb_misses");
  static obs::Counter* const sb_hits = obs::counter("sim.sb_hits");
  static obs::Counter* const sb_builds = obs::counter("sim.sb_builds");
  pd_hits->add(c.predecode_hits);
  pd_misses->add(c.predecode_misses);
  tlb_hits->add(c.tlb_hits);
  tlb_misses->add(c.tlb_misses);
  sb_hits->add(c.sb_hits);
  sb_builds->add(c.sb_builds);
}

}  // namespace

void run_one(SimStack& w, const CampaignConfig& cfg, bool use_suite,
             const Program& test, std::uint64_t test_index,
             TestArtifact& out) {
  OBS_SPAN("sim.run_one");
  out.begin();
  w.db.reset_hits();  // shard holds exactly this test's hits afterwards
  if (use_suite) w.suite.begin_test();
  std::uint64_t reg_seed = 0;
  if (cfg.randomize_regs) {
    // Per-test RNG stream keyed by campaign seed + global test index, so the
    // register file is the same no matter which thread runs the test — and
    // the same for every DUT of a multi-DUT campaign.
    reg_seed = Rng(cfg.seed).fork(test_index).next_u64();
    w.golden->set_reg_seed(reg_seed);
  }

  // One golden ISS run per DUT backend, in list order. Everything a test
  // contributes — condition hits in the shared shard, ctrl states, the
  // mismatch report (comparator ordinal d accumulates all DUTs into one
  // Report) — lands in the same artifact, so the fold stays per-test and
  // order-free exactly as in single-DUT mode. The metrics suite and step
  // count stay primary-DUT-only: they feed guidance, whose semantics are
  // per-program, not per-backend.
  obs::SimCounters oc;
  for (std::size_t d = 0; d < w.duts.size(); ++d) {
    OBS_SPAN("sim.dut_run");
    rtl::DutCore& dut = *w.duts[d];
    dut.ctrl_cov().begin_test();
    dut.ctrl_cov().set_recorder(&out.ctrl_states);
    if (cfg.randomize_regs) dut.set_reg_seed(reg_seed);
    if (cfg.mismatch_detection) {
      // Arm the comparator (which sinks the golden model) before the golden
      // reset, so the reset skips its trace scratch like the DUT's does.
      w.comparator.begin(w.detector, *w.golden, out.report, d);
      w.golden->reset(test);
      dut.set_sink(&w.comparator);
    } else {
      dut.set_sink(&w.discard);
    }
    dut.reset(test);
    const sim::RunResult dut_run = dut.run();
    if (cfg.mismatch_detection) {
      OBS_SPAN("sim.lockstep_finish");
      w.comparator.finish();
    }
    dut.set_sink(nullptr);
    dut.ctrl_cov().set_recorder(nullptr);
    out.cycles += dut.cycles();
    if (d == 0) out.steps = dut_run.steps;
    oc += dut.take_obs_counters();
  }
  oc += w.golden->take_obs_counters();
  flush_sim_counters(oc);

  cov::extract_bins(w.db, out.cond_bins);
  if (use_suite) {
    w.suite.toggle().append_test_bins(out.toggle_bins);
    w.suite.fsm().append_test_bins(out.fsm_bins);
    w.suite.statement().append_test_bins(out.stmt_bins);
  }
}

void run_span(std::vector<std::unique_ptr<SimStack>>& stacks,
              const CampaignConfig& cfg, bool use_suite, const Program* tests,
              std::size_t count, std::uint64_t base_index,
              TestArtifact* artifacts) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto drain = [&](std::size_t si) {
    SimStack& w = *stacks[si];
    try {
      for (std::size_t i;
           !failed.load(std::memory_order_relaxed) &&
           (i = next.fetch_add(1)) < count;) {
        run_one(w, cfg, use_suite, tests[i], base_index + i, artifacts[i]);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  const std::size_t spawn = std::min(stacks.size(), count);
  if (spawn <= 1) {
    drain(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(spawn - 1);
    for (std::size_t si = 1; si < spawn; ++si) pool.emplace_back(drain, si);
    drain(0);
    for (std::thread& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace chatfuzz::core
