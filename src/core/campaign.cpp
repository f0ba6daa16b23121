#include "core/campaign.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.h"
#include "core/sim_worker.h"
#include "corpus/store.h"
#include "dist/coordinator.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/rng.h"

namespace chatfuzz::core {

namespace {

/// Graceful-drain flag. std::atomic<bool> is lock-free on every supported
/// target, so request_drain() is safe to call from a signal handler.
std::atomic<bool> g_drain_requested{false};

}  // namespace

void request_drain() { g_drain_requested.store(true, std::memory_order_relaxed); }
bool drain_requested() {
  return g_drain_requested.load(std::memory_order_relaxed);
}
void clear_drain() { g_drain_requested.store(false, std::memory_order_relaxed); }

namespace {

/// First curve point at/above `percent` condition coverage. Cumulative
/// coverage is monotone along the curve, so binary search applies; benches
/// that query many thresholds over long curves were paying a full rescan
/// per call.
const CampaignPoint* first_point_at(const std::vector<CampaignPoint>& curve,
                                    double percent) {
  const auto it = std::lower_bound(
      curve.begin(), curve.end(), percent,
      [](const CampaignPoint& p, double v) { return p.cond_cov_percent < v; });
  return it != curve.end() ? &*it : nullptr;
}

/// Trace recording bracketed over the engine body. Stops recording on every
/// exit path (including thrown exceptions); the export itself only happens
/// on the success path, explicitly.
struct TraceSession {
  bool active = false;
  ~TraceSession() {
    if (active) obs::trace_stop();
  }
};

}  // namespace

double CampaignResult::hours_to(double percent) const {
  const CampaignPoint* p = first_point_at(curve, percent);
  return p != nullptr ? p->hours : -1.0;
}

std::size_t CampaignResult::tests_to(double percent) const {
  const CampaignPoint* p = first_point_at(curve, percent);
  return p != nullptr ? p->tests : 0;
}

std::vector<rtl::CoreConfig> effective_duts(const CampaignConfig& cfg) {
  if (!cfg.duts.empty()) return cfg.duts;
  return {cfg.core};
}

const char* guidance_name(GuidanceMetric m) {
  switch (m) {
    case GuidanceMetric::kCondition: return "condition";
    case GuidanceMetric::kToggle: return "toggle";
    case GuidanceMetric::kStatement: return "statement";
    case GuidanceMetric::kFsm: return "fsm";
    case GuidanceMetric::kCtrlReg: return "ctrl-reg";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Parallel execution engine.
//
// The paper scales by running ten VCS instances side by side and merging
// their coverage; this engine does the same with worker threads — and, when
// cfg.dist.num_procs > 1, with worker *processes* behind a
// dist::Coordinator. Either way each simulation stack is private (see
// core/sim_worker.h), a batch is split across the pool and every test
// produces a TestArtifact — the complete, order-free record of what that
// test contributed. The coordinating thread then folds artifacts back in
// canonical test order, reproducing the exact per-test incremental/total
// coverage values, curve checkpoints and mismatch tallies a fully
// sequential run computes. Because every artifact depends only on
// (program, campaign seed, test index) — the DUT is reset per test and all
// stochastic decisions are keyed by test index, never by thread or process
// — campaign output is bit-identical for any worker count, process count
// and any scheduling.
// ---------------------------------------------------------------------------

/// The engine shared by run_campaign() (restored == nullptr) and
/// resume_campaign() (restored == the loaded checkpoint).
CampaignResult run_engine(InputGenerator& gen, const CampaignConfig& cfg,
                          CheckpointHook hook,
                          const CheckpointData* restored) {
  // Telemetry is observation-only: the registry reset, span recording and
  // NDJSON snapshots below never feed back into campaign state, so every
  // artifact is byte-identical with telemetry on or off. Metrics counters
  // always accumulate (they are a relaxed add); the reset just scopes the
  // numbers to this campaign when several run in one process.
  obs::registry().reset();
  const std::uint64_t obs_start_ns = obs::now_ns();
  TraceSession trace_session;
  if (!cfg.trace_path.empty()) {
    obs::trace_start();
    trace_session.active = true;
  }
  obs::StatsWriter stats_writer;
  if (!cfg.stats_path.empty()) {
    std::string err;
    if (!stats_writer.open(cfg.stats_path, cfg.stats_every_ms, &err)) {
      throw std::runtime_error("stats file: " + err);
    }
  }

  const bool use_suite = campaign_uses_metric_suite(cfg);
  // A listen address alone selects the dist engine even with num_procs == 0:
  // the coordinator then waits for external `worker --connect` dial-ins.
  const bool use_dist = cfg.dist.num_procs > 1 || !cfg.dist.listen.empty();
  // Clamp to what can actually run concurrently: a batch never fans out
  // wider than its own size, so extra worker stacks would be dead weight
  // (and an absurd request — CLI garbage parsing to ULONG_MAX — would
  // otherwise OOM constructing simulator instances).
  const std::size_t requested = std::max<std::size_t>(
      1, cfg.num_workers != 0
             ? cfg.num_workers
             : std::thread::hardware_concurrency());
  const std::size_t num_workers = std::min(
      requested,
      std::max<std::size_t>(1, std::min(cfg.batch_size, cfg.num_tests)));

  // Canonical campaign-wide state, touched only by the coordinating thread.
  // The throwaway cores perform the condition-point registrations so this DB
  // has the exact same layout as every worker shard: one backend per
  // effective DUT, registered in list order (see SimStack's constructor).
  cov::CoverageDB db;
  for (const rtl::CoreConfig& core : effective_duts(cfg)) {
    rtl::make_dut(core, db, cfg.platform);
  }
  cov::MetricSuite suite;
  cov::CtrlRegCoverage ctrl;
  mismatch::MismatchDetector detector;
  const cov::Metric* guide = select_guidance_metric(suite, cfg.guidance);

  // Exactly one simulation backend: in-process stacks, or the dist
  // coordinator (which spawns its worker processes up front and keeps them
  // for the whole campaign — leases flow per batch, processes do not).
  std::vector<std::unique_ptr<SimStack>> workers;
  std::unique_ptr<dist::Coordinator> coordinator;
  if (use_dist) {
    coordinator = std::make_unique<dist::Coordinator>(cfg, use_suite);
  } else {
    workers.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) {
      workers.push_back(std::make_unique<SimStack>(cfg, use_suite));
    }
  }

  CampaignResult result;
  result.fuzzer = gen.name();

  // Durable-campaign plumbing: the corpus store archives interesting tests;
  // snapshot() captures the full coordinator + generator state.
  const bool persist = !cfg.checkpoint_dir.empty();
  if (cfg.stop_after_tests != 0 && !persist) {
    // A pause without a checkpoint directory would discard every test run
    // so far with nothing on disk to resume from.
    throw std::invalid_argument(
        "stop_after_tests requires checkpoint_dir: pausing without a "
        "checkpoint would lose the campaign state");
  }
  corpus::CorpusStore store;
  if (persist) {
    if (!gen.supports_snapshot()) {
      throw std::invalid_argument(
          "campaign checkpointing requires a generator that supports "
          "snapshots; " +
          gen.name() + " does not");
    }
    const ser::Status s = store.open(cfg.checkpoint_dir + "/corpus");
    if (!s.ok()) throw std::runtime_error(s.message());
  }

  std::size_t since_checkpoint = 0;
  if (restored != nullptr) {
    // Rebuild the coordinator exactly as it was at the snapshot. The
    // workers need no restoration: every per-test artifact depends only on
    // (program, seed, test index), and worker-local ctrl dedup sets merely
    // over-report states the coordinator set filters out again.
    result.curve = restored->curve;
    result.tests_run = static_cast<std::size_t>(restored->tests_run);
    result.total_cycles = restored->total_cycles;
    result.total_instrs = restored->total_instrs;
    since_checkpoint = static_cast<std::size_t>(restored->since_checkpoint);
    ser::Reader cov_r(restored->coverage_blob);
    if (!db.restore_state(cov_r) || !suite.restore_state(cov_r) ||
        !ctrl.restore_state(cov_r) || !cov_r.done()) {
      throw std::runtime_error(
          "checkpoint coverage state does not match this build's DUT "
          "instrumentation");
    }
    ser::Reader det_r(restored->detector_blob);
    if (!detector.restore_state(det_r) || !det_r.done()) {
      throw std::runtime_error("checkpoint mismatch-database is malformed");
    }
    if (persist) {
      const ser::Status s =
          store.truncate(static_cast<std::size_t>(restored->corpus_entries));
      if (!s.ok()) throw std::runtime_error(s.message());
    }
  }

  const auto snapshot = [&] {
    OBS_SPAN("engine.checkpoint");
    obs::counter("campaign.checkpoints")->inc();
    ser::Status s = store.flush();
    if (!s.ok()) throw std::runtime_error(s.message());
    CheckpointData data;
    data.cfg = cfg;
    data.cfg.stop_after_tests = 0;  // a pause point is not part of the state
    data.fuzzer = gen.name();
    data.curve = result.curve;
    data.tests_run = result.tests_run;
    data.total_cycles = result.total_cycles;
    data.total_instrs = result.total_instrs;
    data.since_checkpoint = since_checkpoint;
    data.corpus_entries = store.size();
    ser::Writer cov_w;
    db.save_state(cov_w);
    suite.save_state(cov_w);
    ctrl.save_state(cov_w);
    data.coverage_blob = cov_w.take();
    ser::Writer det_w;
    detector.save_state(det_w);
    data.detector_blob = det_w.take();
    ser::Writer gen_w;
    gen.save_state(gen_w);
    data.generator_blob = gen_w.take();
    s = save_checkpoint(cfg.checkpoint_dir, data);
    if (!s.ok()) throw std::runtime_error(s.message());
  };

  // Pausing early must not perturb batch sizing (batches derive from
  // num_tests), or the resumed schedule would diverge from an
  // uninterrupted run's.
  const std::size_t stop_at = cfg.stop_after_tests == 0
                                  ? cfg.num_tests
                                  : std::min(cfg.num_tests,
                                             cfg.stop_after_tests);
  std::size_t last_snapshot_tests = result.tests_run;

  // Pooled batch scratch: artifacts and fold vectors live for the whole
  // campaign and only ever grow, so after the first batch the engine
  // allocates nothing per test beyond what a test's own novelty requires.
  std::vector<TestArtifact> artifacts;
  std::vector<cov::TestCoverage> coverages;
  std::vector<std::uint64_t> ctrl_new;
  std::vector<std::uint32_t> new_bins;

  // Hot telemetry handles, resolved once (name lookups take a mutex).
  obs::Counter* const m_tests = obs::counter("campaign.tests");
  obs::Counter* const m_cycles = obs::counter("campaign.cycles");
  obs::Counter* const m_instrs = obs::counter("campaign.instrs");
  obs::Counter* const m_new_bins = obs::counter("campaign.new_bins");
  obs::Counter* const m_batches = obs::counter("campaign.batches");
  obs::Histo* const m_batch_new =
      obs::registry().histogram("campaign.batch_new_bins", 0.0, 4096.0, 64);

  while (result.tests_run < cfg.num_tests) {
    const std::size_t want =
        std::min(cfg.batch_size, cfg.num_tests - result.tests_run);
    std::vector<Program> batch;
    {
      OBS_SPAN("engine.generate");
      batch = gen.next_batch(want);
    }
    if (batch.empty()) break;  // generator exhausted; don't spin forever
    const std::size_t base = result.tests_run;

    if (artifacts.size() < batch.size()) artifacts.resize(batch.size());

    // Fold artifacts [lo, hi) of this batch in canonical test order:
    // identical arithmetic to a sequential run, including curve checkpoints
    // at exact test indices. Ranges must arrive ascending with no gaps —
    // the in-process path folds [0, batch) once after the join; the dist
    // path folds each contiguous lease span as it completes, overlapping
    // the coordinator's fold with the workers' simulation wall-clock.
    coverages.clear();
    ctrl_new.clear();
    coverages.reserve(batch.size());
    ctrl_new.reserve(batch.size());
    const auto fold_range = [&](std::size_t lo, std::size_t hi) {
      OBS_SPAN("engine.fold");
      for (std::size_t i = lo; i < hi; ++i) {
        const TestArtifact& art = artifacts[i];
        // Running covered counts: both reads are O(1) on the journaled DBs,
        // so the coordinator no longer rescans the bin universe per test.
        const std::size_t cond_before = db.total_covered();
        const std::size_t guide_before = guide ? guide->covered() : 0;
        // Coverage attribution for the corpus store: the condition bins
        // this test covers FIRST, taken before its delta lands in the DB.
        new_bins.clear();
        if (persist) {
          for (const cov::BinDelta& d : art.cond_bins) {
            if (!db.bin_covered(d.bin)) new_bins.push_back(d.bin);
          }
        }
        cov::apply_bins(db, art.cond_bins);
        if (use_suite) {
          for (std::size_t bin : art.toggle_bins) {
            suite.toggle().cover_bin(bin);
          }
          for (std::size_t bin : art.fsm_bins) suite.fsm().cover_bin(bin);
          for (std::size_t bin : art.stmt_bins) {
            suite.statement().cover_bin(bin);
          }
        }
        ctrl.begin_test();
        for (std::uint64_t s : art.ctrl_states) ctrl.observe(s);

        cov::TestCoverage tc;
        if (guide != nullptr) {
          // Guidance by the selected metric: the generator sees the
          // metric's stand-alone/incremental/total instead of condition
          // coverage.
          tc.standalone_bins = guide_test_bins(art, cfg.guidance).size();
          tc.total_bins = guide->covered();
          tc.incremental_bins = tc.total_bins - guide_before;
          tc.universe_bins = guide->universe();
        } else if (cfg.guidance == GuidanceMetric::kCtrlReg) {
          tc.standalone_bins = ctrl.test_new_states();
          tc.incremental_bins = tc.standalone_bins;
          tc.total_bins = ctrl.distinct_states();
          tc.universe_bins = 0;  // open universe: percentages undefined
        } else {
          tc.standalone_bins = art.cond_bins.size();
          tc.total_bins = db.total_covered();
          tc.incremental_bins = tc.total_bins - cond_before;
          tc.universe_bins = db.num_bins();
        }
        coverages.push_back(tc);
        ctrl_new.push_back(ctrl.test_new_states());
        result.total_cycles += art.cycles;
        result.total_instrs += art.steps;
        m_tests->inc();
        m_cycles->add(art.cycles);
        m_instrs->add(art.steps);
        m_new_bins->add(tc.incremental_bins);
        for (const mismatch::Mismatch& mm : art.report.mismatches) {
          obs::counter("campaign.mismatches.dut" +
                       std::to_string(mm.dut_index))
              ->inc();
        }
        if (cfg.mismatch_detection) detector.accumulate(art.report);
        // Archive tests that earned their keep. Appends happen in
        // canonical fold order from the coordinator's own copy of the
        // batch, so the store's bytes are worker-count- and
        // process-count-invariant too.
        if (persist &&
            (!new_bins.empty() || !art.report.mismatches.empty())) {
          corpus::StoreEntryMeta meta;
          meta.test_index = base + i;
          meta.standalone_bins =
              static_cast<std::uint32_t>(tc.standalone_bins);
          meta.incremental_bins =
              static_cast<std::uint32_t>(tc.incremental_bins);
          meta.mismatches =
              static_cast<std::uint32_t>(art.report.mismatches.size());
          meta.ctrl_new = ctrl.test_new_states();
          meta.new_bins = new_bins;  // copy: the scratch vector is pooled
          const ser::Status s = store.append(batch[i], meta);
          if (!s.ok()) throw std::runtime_error(s.message());
        }
        ++result.tests_run;
        ++since_checkpoint;

        if (since_checkpoint >= cfg.checkpoint_every ||
            result.tests_run == cfg.num_tests) {
          since_checkpoint = 0;
          CampaignPoint pt;
          pt.tests = result.tests_run;
          pt.hours = static_cast<double>(result.tests_run) /
                     (cfg.tests_per_hour / gen.time_per_test_factor());
          pt.cond_cov_percent = db.total_percent();
          pt.ctrl_states = ctrl.distinct_states();
          result.curve.push_back(pt);
          if (hook) hook(pt);
        }
      }
    };

    if (use_dist) {
      // Fan the batch out across worker processes as leases; the
      // coordinator re-issues a lost worker's outstanding leases to the
      // survivors and never folds a lease twice. Artifacts land at their
      // canonical batch slots regardless of which process ran them, and
      // fold in canonical order as each contiguous lease span completes.
      coordinator->run_batch(batch, base, artifacts,
                             [&](std::size_t start, std::size_t count) {
                               fold_range(start, start + count);
                             });
    } else {
      // Simulate the batch across the thread pool (core/sim_worker.h owns
      // the claim/drain/first-exception machinery, shared with the dist
      // worker's lease loop), then fold it all at once.
      {
        OBS_SPAN("engine.sim_batch");
        run_span(workers, cfg, use_suite, batch.data(), batch.size(), base,
                 artifacts.data());
      }
      fold_range(0, batch.size());
    }

    {
      OBS_SPAN("engine.feedback");
      Feedback fb;
      fb.batch = &batch;
      fb.coverages = &coverages;
      fb.ctrl_new_states = &ctrl_new;
      fb.db = &db;
      gen.feedback(fb);
    }

    // Batch-boundary telemetry rollup: gauges derived from the canonical
    // result (reads only — nothing flows back), then an NDJSON snapshot if
    // the stats interval elapsed.
    m_batches->inc();
    {
      std::uint64_t batch_new = 0;
      for (const cov::TestCoverage& tc : coverages) {
        batch_new += tc.incremental_bins;
      }
      m_batch_new->add(static_cast<double>(batch_new));
    }
    if (stats_writer.is_open()) {
      const double el_s =
          static_cast<double>(obs::now_ns() - obs_start_ns) / 1e9;
      obs::gauge("campaign.cov_percent")->set(db.total_percent());
      obs::gauge("campaign.tests_per_sec")
          ->set(el_s > 0 ? static_cast<double>(m_tests->value()) / el_s : 0);
      obs::gauge("campaign.cycles_per_sec")
          ->set(el_s > 0 ? static_cast<double>(m_cycles->value()) / el_s : 0);
      obs::gauge("obs.spans_dropped")
          ->set(static_cast<double>(obs::trace_dropped_count()));
      std::vector<std::pair<std::string, double>> extras;
      if (use_dist) coordinator->fleet_metrics(&extras);
      stats_writer.maybe_write(extras);
    }

    // Batch boundary: the generator's feedback is absorbed, no test is in
    // flight and no lease is outstanding — the one consistent cut point for
    // snapshots and pauses (every batch boundary is a lease boundary).
    const bool done = result.tests_run >= cfg.num_tests;
    // A pause point is either the configured test budget or a graceful
    // drain (SIGTERM): both stop at this boundary, after the checkpoint.
    const bool pausing =
        !done && (result.tests_run >= stop_at || drain_requested());
    if (persist &&
        (done || pausing ||
         (cfg.checkpoint_every_tests != 0 &&
          result.tests_run - last_snapshot_tests >=
              cfg.checkpoint_every_tests))) {
      snapshot();
      last_snapshot_tests = result.tests_run;
    }
    if (pausing) {
      result.completed = false;
      break;
    }
  }

  result.final_cov_percent = db.total_percent();
  result.uncovered = cov::uncovered_points(db);
  if (use_suite) {
    result.toggle_percent = suite.toggle().percent();
    result.fsm_percent = suite.fsm().percent();
    result.statement_percent = suite.statement().percent();
  }
  result.hours = static_cast<double>(result.tests_run) /
                 (cfg.tests_per_hour / gen.time_per_test_factor());
  result.raw_mismatches = detector.total_raw();
  result.filtered_mismatches =
      detector.total_raw() - detector.total_post_filter();
  result.unique_mismatches = detector.unique_count();
  for (const mismatch::Finding f : detector.findings_seen()) {
    result.findings.insert(f);
  }

  if (stats_writer.is_open()) {
    const double el_s =
        static_cast<double>(obs::now_ns() - obs_start_ns) / 1e9;
    obs::gauge("campaign.cov_percent")->set(db.total_percent());
    obs::gauge("campaign.tests_per_sec")
        ->set(el_s > 0 ? static_cast<double>(m_tests->value()) / el_s : 0);
    obs::gauge("campaign.cycles_per_sec")
        ->set(el_s > 0 ? static_cast<double>(m_cycles->value()) / el_s : 0);
    obs::gauge("obs.spans_dropped")
        ->set(static_cast<double>(obs::trace_dropped_count()));
    std::vector<std::pair<std::string, double>> extras;
    extras.emplace_back("final", 1.0);
    if (use_dist) coordinator->fleet_metrics(&extras);
    stats_writer.finish(extras);
  }
  if (trace_session.active) {
    obs::trace_stop();
    trace_session.active = false;
    std::string err;
    if (!obs::write_chrome_trace(cfg.trace_path, &err)) {
      LOG_WARN("trace export failed: %s", err.c_str());
    }
  }
  return result;
}

}  // namespace

CampaignResult run_campaign(InputGenerator& gen, const CampaignConfig& cfg,
                            CheckpointHook hook) {
  return run_engine(gen, cfg, std::move(hook), nullptr);
}

CampaignResult resume_campaign(InputGenerator& gen, const std::string& dir,
                               const ResumeOptions& opts,
                               CheckpointHook hook) {
  CheckpointData data;
  const ser::Status s = load_checkpoint(dir, &data);
  if (!s.ok()) throw std::runtime_error(s.message());
  return resume_campaign(gen, dir, std::move(data), opts, std::move(hook));
}

CampaignResult resume_campaign(InputGenerator& gen, const std::string& dir,
                               CheckpointData data, const ResumeOptions& opts,
                               CheckpointHook hook) {
  if (data.fuzzer != gen.name()) {
    throw std::runtime_error("checkpoint in " + dir + " was written by \"" +
                             data.fuzzer + "\", cannot resume with \"" +
                             gen.name() + "\"");
  }
  ser::Reader gen_r(data.generator_blob);
  if (!gen.supports_snapshot() || !gen.restore_state(gen_r) ||
      !gen_r.done()) {
    throw std::runtime_error(
        "checkpoint generator state in " + dir +
        " does not restore into this generator configuration");
  }
  CampaignConfig cfg = data.cfg;
  cfg.checkpoint_dir = dir;  // continue persisting where we left off
  if (opts.num_workers != 0) cfg.num_workers = opts.num_workers;
  cfg.stop_after_tests = opts.stop_after_tests;
  cfg.dist = opts.dist;       // topology is per-run, never stored
  cfg.superblocks = opts.superblocks;  // dispatch engine likewise
  cfg.trace_path = opts.trace_path;    // telemetry likewise
  cfg.stats_path = opts.stats_path;
  cfg.stats_every_ms = opts.stats_every_ms;
  return run_engine(gen, cfg, std::move(hook), &data);
}

ser::Status peek_checkpoint(const std::string& dir, std::string* fuzzer,
                            CampaignConfig* cfg) {
  CheckpointData data;
  ser::Status s = load_checkpoint(dir, &data);
  if (!s.ok()) return s;
  if (fuzzer != nullptr) *fuzzer = data.fuzzer;
  if (cfg != nullptr) *cfg = data.cfg;
  return {};
}

}  // namespace chatfuzz::core
