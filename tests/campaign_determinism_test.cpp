// The parallel campaign engine's core guarantee: for a fixed seed, campaign
// output — the full coverage curve (batch boundaries included), mismatch
// tallies, cycle/instruction totals — is bit-identical for ANY worker
// count. Workers simulate tests on private model instances and the
// coordinator folds per-test artifacts in canonical order, so nothing may
// depend on scheduling. These tests pin that down for the default
// condition-coverage configuration, for metric-guided configurations (which
// exercise the MetricSuite artifact path), for ctrl-reg guidance (the
// DifuzzRTL-style replayed state set), for randomized initial register
// files (the per-test RNG stream path), and for multi-DUT campaigns (every
// test simulated on each backend of the DUT list), whose matrix also spans
// worker *processes* — this binary doubles as its own dist worker (see
// main() at the bottom).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "baselines/mutational.h"
#include "campaign_equality.h"
#include "core/campaign.h"
#include "core/checkpoint.h"
#include "corpus/generator.h"
#include "dist/worker.h"

namespace chatfuzz::core {
namespace {

/// Priv/Sv39-dense stimulus behind the InputGenerator interface: most
/// samples bring up an Sv39 identity map, install satp, drop to S/U via
/// mret, and run translated loads/stores — so the campaign spends its time
/// in the trap/translation surface rather than plain ALU traffic.
class PrivCorpusFuzzer final : public InputGenerator {
 public:
  explicit PrivCorpusFuzzer(std::uint64_t seed) : gen_(vm_config(), seed) {}
  std::string name() const override { return "PrivCorpus"; }
  std::vector<Program> next_batch(std::size_t n) override {
    return gen_.dataset(n);
  }
  bool supports_snapshot() const override { return true; }
  void save_state(ser::Writer& w) const override { gen_.save_state(w); }
  bool restore_state(ser::Reader& r) override { return gen_.restore_state(r); }

  static corpus::CorpusConfig vm_config() {
    corpus::CorpusConfig cc;
    cc.w_vm = 4.0;
    cc.w_priv = 2.0;
    return cc;
  }

 private:
  corpus::CorpusGenerator gen_;
};

/// LSU-dense stimulus: the w_lsu memory-ordering idiom dominates, so
/// store→load forwarding, store-queue drain and branch-squash windows —
/// where the ooo backend's injected bug classes live — are exercised every
/// few tests. Pure random words almost never form the back-to-back
/// store/load pairs those paths need.
class LsuCorpusFuzzer final : public InputGenerator {
 public:
  explicit LsuCorpusFuzzer(std::uint64_t seed) : gen_(lsu_config(), seed) {}
  std::string name() const override { return "LsuCorpus"; }
  std::vector<Program> next_batch(std::size_t n) override {
    return gen_.dataset(n);
  }
  bool supports_snapshot() const override { return true; }
  void save_state(ser::Writer& w) const override { gen_.save_state(w); }
  bool restore_state(ser::Reader& r) override { return gen_.restore_state(r); }

  static corpus::CorpusConfig lsu_config() {
    corpus::CorpusConfig cc;
    cc.w_lsu = 50.0;  // isolate the memory-ordering idiom
    return cc;
  }

 private:
  corpus::CorpusGenerator gen_;
};

// Small but not trivial: 3 batches of 32 with a checkpoint interval that
// does not divide the batch size, so curve points land both inside batches
// and across batch boundaries.
CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.num_tests = 96;
  cfg.batch_size = 32;
  cfg.checkpoint_every = 10;
  cfg.platform.max_steps = 256;
  return cfg;
}

CampaignResult run_with_workers(const CampaignConfig& base,
                                std::size_t workers,
                                std::uint64_t gen_seed = 11) {
  baselines::RandomFuzzer gen(gen_seed);
  CampaignConfig cfg = base;
  cfg.num_workers = workers;
  return run_campaign(gen, cfg);
}

TEST(CampaignDeterminism, FourWorkersMatchOneWorker) {
  const CampaignConfig cfg = small_campaign();
  const CampaignResult one = run_with_workers(cfg, 1);
  for (const std::size_t workers : {2, 4, 8}) {
    SCOPED_TRACE(workers);
    expect_identical(one, run_with_workers(cfg, workers));
  }
}

TEST(CampaignDeterminism, OddWorkerCountAndRepeatRunsMatch) {
  const CampaignConfig cfg = small_campaign();
  const CampaignResult once = run_with_workers(cfg, 3);
  expect_identical(once, run_with_workers(cfg, 3));  // run-to-run stable
  expect_identical(once, run_with_workers(cfg, 1));
}

TEST(CampaignDeterminism, MetricGuidanceIsWorkerCountInvariant) {
  CampaignConfig cfg = small_campaign();
  cfg.guidance = GuidanceMetric::kToggle;
  cfg.collect_multi_metrics = true;
  const CampaignResult a = run_with_workers(cfg, 1);
  const CampaignResult b = run_with_workers(cfg, 4);
  expect_identical(a, b);
  EXPECT_GT(a.toggle_percent, 0.0);
  EXPECT_GT(a.statement_percent, 0.0);
}

TEST(CampaignDeterminism, CtrlRegGuidanceIsWorkerCountInvariant) {
  CampaignConfig cfg = small_campaign();
  cfg.guidance = GuidanceMetric::kCtrlReg;
  const CampaignResult a = run_with_workers(cfg, 1);
  const CampaignResult b = run_with_workers(cfg, 4);
  expect_identical(a, b);
  EXPECT_GT(a.curve.back().ctrl_states, 0u);
}

TEST(CampaignDeterminism, CtrlRegWithMultiMetricsIsWorkerCountInvariant) {
  // Ctrl-reg guidance with the metric suite attached: the replayed ctrl
  // state set AND the per-test metric-bin artifacts must both fold
  // scheduling-invariantly in the same campaign.
  CampaignConfig cfg = small_campaign();
  cfg.guidance = GuidanceMetric::kCtrlReg;
  cfg.collect_multi_metrics = true;
  const CampaignResult a = run_with_workers(cfg, 1);
  const CampaignResult b = run_with_workers(cfg, 4);
  expect_identical(a, b);
  EXPECT_GT(a.curve.back().ctrl_states, 0u);
  EXPECT_GT(a.toggle_percent, 0.0);
  EXPECT_GT(a.statement_percent, 0.0);
}

TEST(CampaignDeterminism, FsmGuidanceWithMultiMetricsIsWorkerCountInvariant) {
  CampaignConfig cfg = small_campaign();
  cfg.guidance = GuidanceMetric::kFsm;
  cfg.collect_multi_metrics = true;
  const CampaignResult a = run_with_workers(cfg, 1);
  const CampaignResult b = run_with_workers(cfg, 4);
  expect_identical(a, b);
  EXPECT_GT(a.fsm_percent, 0.0);
}

TEST(CampaignDeterminism, StatementGuidanceIsWorkerCountInvariant) {
  CampaignConfig cfg = small_campaign();
  cfg.guidance = GuidanceMetric::kStatement;
  const CampaignResult a = run_with_workers(cfg, 1);
  const CampaignResult b = run_with_workers(cfg, 4);
  expect_identical(a, b);
  EXPECT_GT(a.statement_percent, 0.0);
}

TEST(CampaignDeterminism, RandomizedRegFilesStayDeterministic) {
  CampaignConfig cfg = small_campaign();
  cfg.randomize_regs = true;
  cfg.seed = 99;
  const CampaignResult a = run_with_workers(cfg, 1);
  const CampaignResult b = run_with_workers(cfg, 4);
  expect_identical(a, b);
}

TEST(CampaignDeterminism, SeedActuallyChangesRandomizedRegCampaigns) {
  CampaignConfig cfg = small_campaign();
  cfg.randomize_regs = true;
  cfg.seed = 1;
  const CampaignResult a = run_with_workers(cfg, 2);
  cfg.seed = 2;
  const CampaignResult b = run_with_workers(cfg, 2);
  // Different harness seeds give different register files, so cycle totals
  // should diverge; identical totals would mean the seed is dead plumbing.
  EXPECT_NE(a.total_cycles, b.total_cycles);
}

TEST(CampaignDeterminism, CurveHasBatchBoundaryAndFinalPoints) {
  const CampaignConfig cfg = small_campaign();
  const CampaignResult r = run_with_workers(cfg, 4);
  ASSERT_FALSE(r.curve.empty());
  // checkpoint_every=10 over 96 tests: 10, 20, ..., 90, then the forced
  // final point at 96.
  EXPECT_EQ(r.curve.front().tests, 10u);
  EXPECT_EQ(r.curve.back().tests, 96u);
  EXPECT_EQ(r.curve.size(), 10u);
}

TEST(CampaignDeterminism, PrivVmCampaignIsWorkerCountInvariant) {
  // The tentpole surface under the campaign engine: scheduling must not
  // leak into trap/translation-heavy runs either (TLB state, privilege and
  // satp are per-worker-instance, so nothing may alias across workers).
  const CampaignConfig cfg = small_campaign();
  const auto run = [&](std::size_t workers) {
    PrivCorpusFuzzer gen(77);
    CampaignConfig c = cfg;
    c.num_workers = workers;
    return run_campaign(gen, c);
  };
  const CampaignResult a = run(1);
  expect_identical(a, run(4));
  expect_identical(a, run(3));
  // The shipped DUT's injected bugs must actually fire under priv/VM
  // stimulus — a silent campaign would mean the surface is dead.
  EXPECT_GT(a.raw_mismatches, 0u);
}

TEST(CampaignDeterminism, PrivVmCampaignResumeMatchesUninterrupted) {
  // Checkpoint/resume cut mid-campaign with priv/Sv39 stimulus: the resumed
  // run (even at a different worker count) must reproduce the uninterrupted
  // result bit-exactly — generator stream, TLB-exercising programs and all.
  const CampaignConfig cfg = small_campaign();
  CampaignResult reference;
  {
    PrivCorpusFuzzer gen(77);
    CampaignConfig c = cfg;
    c.num_workers = 1;
    reference = run_campaign(gen, c);
    ASSERT_TRUE(reference.completed);
  }
  const std::string dir = ::testing::TempDir() + "/priv_vm_resume";
  std::filesystem::remove_all(dir);
  {
    PrivCorpusFuzzer gen(77);
    CampaignConfig c = cfg;
    c.num_workers = 1;
    c.checkpoint_dir = dir;
    c.stop_after_tests = 40;
    const CampaignResult partial = run_campaign(gen, c);
    ASSERT_FALSE(partial.completed);
  }
  PrivCorpusFuzzer fresh(12345);  // state comes from disk, not the seed
  ResumeOptions opts;
  opts.num_workers = 4;
  expect_identical(reference, resume_campaign(fresh, dir, opts));
}

TEST(CampaignDeterminism, SuperblockDispatchIsResultInvariant) {
  // The tentpole guarantee: superblock dispatch is a pure speedup. Turning
  // it off (interpreter fetch/decode every step) must reproduce the exact
  // campaign result, at any worker count.
  const CampaignConfig on = small_campaign();
  CampaignConfig off = on;
  off.superblocks = false;
  const CampaignResult a = run_with_workers(on, 1);
  expect_identical(a, run_with_workers(off, 1));
  expect_identical(a, run_with_workers(off, 4));
  expect_identical(a, run_with_workers(on, 4));
}

TEST(CampaignDeterminism, PrivVmSuperblockDispatchIsResultInvariant) {
  // Same invariance under trap/translation-dense stimulus, where spans are
  // cut short by traps, satp writes and sfence.vma — the hard cases for the
  // fused path's boundary re-checks.
  const auto run = [](bool superblocks, std::size_t workers) {
    PrivCorpusFuzzer gen(77);
    CampaignConfig c = small_campaign();
    c.superblocks = superblocks;
    c.num_workers = workers;
    return run_campaign(gen, c);
  };
  const CampaignResult a = run(true, 1);
  expect_identical(a, run(false, 1));
  expect_identical(a, run(false, 4));
  EXPECT_GT(a.raw_mismatches, 0u);  // the injected bugs still fire
}

TEST(CampaignDeterminism, ResumeWithSuperblocksToggledMatches) {
  // superblocks is a per-run knob, never serialized: a campaign
  // checkpointed with superblocks ON resumes bit-identically with them OFF
  // (and vice versa).
  const std::string dir = ::testing::TempDir() + "/sb_toggle_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CampaignResult reference;
  {
    PrivCorpusFuzzer gen(77);
    CampaignConfig c = small_campaign();
    c.num_workers = 1;
    reference = run_campaign(gen, c);
    ASSERT_TRUE(reference.completed);
  }
  const std::string ckpt = dir + "/ckpt";
  {
    PrivCorpusFuzzer gen(77);
    CampaignConfig c = small_campaign();
    c.num_workers = 1;
    c.checkpoint_dir = ckpt;
    c.stop_after_tests = 40;
    ASSERT_FALSE(run_campaign(gen, c).completed);
  }
  PrivCorpusFuzzer fresh(12345);  // state comes from disk, not the seed
  ResumeOptions opts;
  opts.num_workers = 4;
  opts.superblocks = false;  // toggled across the cut
  expect_identical(reference, resume_campaign(fresh, ckpt, opts));
}

TEST(CampaignDeterminism, MoreWorkersThanTestsIsSafe) {
  CampaignConfig cfg = small_campaign();
  cfg.num_tests = 5;
  cfg.batch_size = 3;
  cfg.checkpoint_every = 2;
  expect_identical(run_with_workers(cfg, 1), run_with_workers(cfg, 16));
}

// ---------------------------------------------------------------------------
// Multi-DUT campaigns: every generated test runs on each backend of
// cfg.duts against one golden model, and the per-DUT contributions fold in
// DUT-list order — so the determinism contract extends unchanged: output is
// bit-identical for any workers × procs topology, per DUT set.
// ---------------------------------------------------------------------------

/// The DUT-set axis of the matrix: {inorder}, {ooo}, {inorder, ooo}.
std::vector<rtl::CoreConfig> dut_set(int which) {
  switch (which) {
    case 0: return {rtl::CoreConfig::rocket()};
    case 1: return {rtl::CoreConfig::ooo()};
    default: return {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()};
  }
}

TEST(MultiDutDeterminism, WorkerAndProcessMatrixIsBitIdentical) {
  for (int s = 0; s < 3; ++s) {
    SCOPED_TRACE("dut set " + std::to_string(s));
    CampaignConfig cfg = small_campaign();
    cfg.duts = dut_set(s);
    const CampaignResult ref = run_with_workers(cfg, 1);
    expect_identical(ref, run_with_workers(cfg, 4));
    // Same campaign sharded across 2 worker processes (this binary re-execs
    // itself in `worker` mode), at 1 and 4 threads per process.
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      baselines::RandomFuzzer gen(11);
      CampaignConfig c = cfg;
      c.num_workers = workers;
      c.dist.num_procs = 2;
      expect_identical(ref, run_campaign(gen, c));
    }
  }
}

TEST(MultiDutDeterminism, MultiDutSupersetsSingleDutFindings) {
  // The {inorder, ooo} campaign must surface strictly more raw mismatches
  // than inorder alone (the ooo backend ships its own injected bug classes)
  // and at least as many as each single-DUT campaign — otherwise the second
  // backend's lockstep runs are dead plumbing. LSU-dense stimulus: the ooo
  // bug classes sit in the forwarding/drain/squash paths.
  const auto run_lsu = [](std::vector<rtl::CoreConfig> duts) {
    LsuCorpusFuzzer gen(11);
    CampaignConfig cfg = small_campaign();
    cfg.duts = std::move(duts);
    cfg.num_workers = 4;
    return run_campaign(gen, cfg);
  };
  const CampaignResult both = run_lsu(dut_set(2));
  const CampaignResult inorder = run_lsu(dut_set(0));
  const CampaignResult ooo = run_lsu(dut_set(1));
  EXPECT_GT(ooo.raw_mismatches, 0u);
  EXPECT_GT(both.raw_mismatches, inorder.raw_mismatches);
  EXPECT_GE(both.raw_mismatches, ooo.raw_mismatches);
  EXPECT_GE(both.unique_mismatches, inorder.unique_mismatches);
  EXPECT_GE(both.unique_mismatches, ooo.unique_mismatches);
}

TEST(MultiDutDeterminism, PersistedStateIsTopologyInvariant) {
  // The byte-level half of the contract: a multi-DUT campaign's coverage
  // DB, mismatch signature DB, generator stream and corpus store must be
  // byte-identical whichever workers × procs topology produced them.
  const auto run_persisted = [&](const std::string& tag, std::size_t workers,
                                 std::size_t procs) {
    const std::string dir = ::testing::TempDir() + "/multidut_" + tag;
    std::filesystem::remove_all(dir);
    LsuCorpusFuzzer gen(11);  // LSU-dense: the ooo bug classes must fire
    CampaignConfig c = small_campaign();
    c.duts = dut_set(2);
    c.num_workers = workers;
    c.dist.num_procs = procs;
    c.checkpoint_dir = dir;
    run_campaign(gen, c);
    return dir;
  };
  const std::string ref = run_persisted("w1p1", 1, 1);
  CheckpointData a;
  ASSERT_TRUE(load_checkpoint(ref, &a).ok());
  const struct {
    const char* tag;
    std::size_t workers, procs;
  } grid[] = {{"w4p1", 4, 1}, {"w1p2", 1, 2}};
  for (const auto& g : grid) {
    SCOPED_TRACE(g.tag);
    const std::string dir = run_persisted(g.tag, g.workers, g.procs);
    expect_same_persisted_state(ref, dir);
    std::filesystem::remove_all(dir);
  }

  // The persisted signature DB must attribute the ooo backend's mismatches
  // to DUT ordinal 1 — the ":dut1" suffix keeps the same root cause on
  // different backends distinct campaign-wide.
  mismatch::MismatchDetector det;
  ser::Reader det_r(a.detector_blob);
  ASSERT_TRUE(det.restore_state(det_r));
  bool saw_dut1 = false;
  for (const auto& [sig, count] : det.unique_signatures()) {
    if (sig.find(":dut1") != std::string::npos) saw_dut1 = true;
  }
  EXPECT_TRUE(saw_dut1) << "no mismatch signature attributed to DUT 1";
  std::filesystem::remove_all(ref);
}

}  // namespace
}  // namespace chatfuzz::core

int main(int argc, char** argv) {
  // Worker re-exec: the coordinator spawns /proc/self/exe (this binary)
  // with `worker --connect`; serve leases instead of running the suite.
  if (const auto rc = chatfuzz::dist::maybe_worker_main(argc, argv)) {
    return *rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
