// The checkpoint/resume subsystem's core guarantee: a campaign that is
// paused, written to disk, and resumed by a fresh process-equivalent
// generator + engine — at every cut, for any worker count — produces a
// final CampaignResult (curve, coverage percentages, mismatch statistics)
// bit-identical to an uninterrupted run. PR 1's worker-count invariance is
// the oracle: the uninterrupted reference is itself scheduling-invariant,
// so any divergence indicts the persistence layer specifically.
//
// "Process-equivalent" means every segment starts from a FRESH generator
// instance (a different seed even — restore_state() overwrites everything)
// and a fresh engine; nothing survives a cut except the bytes on disk.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "baselines/mutational.h"
#include "campaign_equality.h"
#include "core/campaign.h"
#include "core/chatfuzz.h"
#include "core/checkpoint.h"
#include "corpus/generator.h"
#include "corpus/store.h"
#include "dist/worker.h"
#include "util/serialize.h"

namespace chatfuzz::core {
namespace {

CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.num_tests = 96;
  cfg.batch_size = 32;
  cfg.checkpoint_every = 10;  // curve cadence (not snapshot cadence)
  cfg.platform.max_steps = 256;
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Run the campaign chopped into segments: segment 0 via run_campaign with
/// stop_after_tests = cuts[0], each further segment via resume_campaign
/// with a FRESH generator from `factory`, pausing at the next cut; the
/// last resume runs to completion. `workers` applies to every segment.
template <typename Factory>
CampaignResult run_chunked(Factory factory, CampaignConfig cfg,
                           const std::string& dir,
                           std::vector<std::size_t> cuts,
                           std::size_t workers) {
  cfg.checkpoint_dir = dir;
  cfg.num_workers = workers;
  cfg.stop_after_tests = cuts.empty() ? 0 : cuts.front();
  {
    auto gen = factory();
    const CampaignResult partial = run_campaign(*gen, cfg);
    if (cuts.empty()) return partial;
    EXPECT_FALSE(partial.completed);
    EXPECT_EQ(partial.tests_run,
              ((cuts.front() + cfg.batch_size - 1) / cfg.batch_size) *
                  cfg.batch_size)
        << "pause lands on the first batch boundary at/after the cut";
  }
  for (std::size_t k = 1; k <= cuts.size(); ++k) {
    auto gen = factory();  // fresh instance: nothing survives but the disk
    ResumeOptions opts;
    opts.num_workers = workers;
    opts.stop_after_tests = k < cuts.size() ? cuts[k] : 0;
    const CampaignResult r = resume_campaign(*gen, dir, opts);
    if (k == cuts.size()) return r;
    EXPECT_FALSE(r.completed);
  }
  return {};
}

auto random_factory(std::uint64_t seed = 11) {
  return [seed] { return std::make_unique<baselines::RandomFuzzer>(seed); };
}

auto thehuzz_factory(std::uint64_t seed = 11) {
  return [seed] { return std::make_unique<baselines::TheHuzzFuzzer>(seed); };
}

/// LSU-dense stimulus behind the InputGenerator interface: the w_lsu
/// memory-ordering idiom dominates, so the ooo backend's injected bug
/// classes (forwarding/drain/squash paths) actually fire — pure random
/// words almost never form the back-to-back store/load pairs they need.
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
    cc.w_lsu = 50.0;
    return cc;
  }

 private:
  corpus::CorpusGenerator gen_;
};

auto lsu_factory(std::uint64_t seed = 11) {
  return [seed] { return std::make_unique<LsuCorpusFuzzer>(seed); };
}

TEST(ResumeDeterminism, RandomFuzzerMatchesUninterruptedAcrossWorkerCounts) {
  const CampaignConfig cfg = small_campaign();
  // Uninterrupted, non-persistent reference.
  CampaignResult reference;
  {
    auto gen = random_factory()();
    CampaignConfig ref_cfg = cfg;
    ref_cfg.num_workers = 1;
    reference = run_campaign(*gen, ref_cfg);
    ASSERT_TRUE(reference.completed);
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const CampaignResult chunked =
        run_chunked(random_factory(), cfg,
                    fresh_dir("resume_random_w" + std::to_string(workers)),
                    {32, 64}, workers);
    ASSERT_TRUE(chunked.completed);
    expect_identical(reference, chunked);
  }
}

TEST(ResumeDeterminism, StatefulGeneratorMatchesUninterrupted) {
  // TheHuzz carries a mutation corpus + weighted-pick RNG across batches —
  // the state a naive resume would lose.
  const CampaignConfig cfg = small_campaign();
  CampaignResult reference;
  {
    auto gen = thehuzz_factory()();
    CampaignConfig ref_cfg = cfg;
    ref_cfg.num_workers = 4;
    reference = run_campaign(*gen, ref_cfg);
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const CampaignResult chunked =
        run_chunked(thehuzz_factory(), cfg,
                    fresh_dir("resume_thehuzz_w" + std::to_string(workers)),
                    {32, 64}, workers);
    expect_identical(reference, chunked);
  }
}

TEST(ResumeDeterminism, CutsNotOnBatchBoundariesRoundUp) {
  const CampaignConfig cfg = small_campaign();
  CampaignResult reference;
  {
    auto gen = random_factory(3)();
    CampaignConfig ref_cfg = cfg;
    ref_cfg.num_workers = 1;
    reference = run_campaign(*gen, ref_cfg);
  }
  const CampaignResult chunked = run_chunked(
      random_factory(3), cfg, fresh_dir("resume_oddcuts"), {10, 50}, 4);
  expect_identical(reference, chunked);
}

TEST(ResumeDeterminism, WorkerCountMayChangeAcrossSegments) {
  const CampaignConfig cfg = small_campaign();
  CampaignResult reference;
  {
    auto gen = random_factory()();
    CampaignConfig ref_cfg = cfg;
    ref_cfg.num_workers = 2;
    reference = run_campaign(*gen, ref_cfg);
  }
  // Segment 1 with 1 worker, segment 2 with 4, final with 3.
  const std::string dir = fresh_dir("resume_mixed_workers");
  CampaignConfig seg = cfg;
  seg.checkpoint_dir = dir;
  seg.num_workers = 1;
  seg.stop_after_tests = 32;
  {
    auto gen = random_factory()();
    ASSERT_FALSE(run_campaign(*gen, seg).completed);
  }
  {
    auto gen = random_factory()();
    ResumeOptions opts;
    opts.num_workers = 4;
    opts.stop_after_tests = 64;
    ASSERT_FALSE(resume_campaign(*gen, dir, opts).completed);
  }
  auto gen = random_factory()();
  ResumeOptions opts;
  opts.num_workers = 3;
  expect_identical(reference, resume_campaign(*gen, dir, opts));
}

TEST(ResumeDeterminism, PeriodicSnapshotsResumeFromLastCheckpoint) {
  // Snapshot cadence via checkpoint_every_tests (no explicit pause): kill
  // the run after an arbitrary segment, resume from whatever the last
  // on-disk snapshot was.
  const CampaignConfig base = small_campaign();
  CampaignResult reference;
  {
    auto gen = random_factory(8)();
    CampaignConfig ref_cfg = base;
    ref_cfg.num_workers = 1;
    reference = run_campaign(*gen, ref_cfg);
  }
  const std::string dir = fresh_dir("resume_periodic");
  CampaignConfig cfg = base;
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every_tests = 32;
  cfg.num_workers = 4;
  cfg.stop_after_tests = 64;
  {
    auto gen = random_factory(8)();
    ASSERT_FALSE(run_campaign(*gen, cfg).completed);
  }
  auto gen = random_factory(8)();
  expect_identical(reference, resume_campaign(*gen, dir, ResumeOptions{}));
}

TEST(ResumeDeterminism, CorpusStoreBytesMatchUninterruptedRun) {
  // The on-disk corpus must also be byte-identical: same entries in the
  // same order with the same attribution, no duplicates from re-run tests.
  const CampaignConfig base = small_campaign();
  const std::string full_dir = fresh_dir("corpus_full");
  {
    auto gen = random_factory()();
    CampaignConfig cfg = base;
    cfg.checkpoint_dir = full_dir;
    cfg.num_workers = 1;
    ASSERT_TRUE(run_campaign(*gen, cfg).completed);
  }
  const std::string chunk_dir = fresh_dir("corpus_chunked");
  run_chunked(random_factory(), base, chunk_dir, {32, 64}, 4);

  corpus::CorpusStore full, chunked;
  ASSERT_TRUE(full.open(full_dir + "/corpus").ok());
  ASSERT_TRUE(chunked.open(chunk_dir + "/corpus").ok());
  ASSERT_GT(full.size(), 0u) << "campaign archived nothing; test is vacuous";
  EXPECT_EQ(file_bytes(full_dir + "/corpus/index.bin"),
            file_bytes(chunk_dir + "/corpus/index.bin"));
  EXPECT_EQ(file_bytes(full_dir + "/corpus/shard-0000.bin"),
            file_bytes(chunk_dir + "/corpus/shard-0000.bin"));
}

TEST(ResumeDeterminism, ResumingACompletedCampaignIsIdempotent) {
  const std::string dir = fresh_dir("resume_completed");
  CampaignConfig cfg = small_campaign();
  cfg.num_tests = 32;
  cfg.checkpoint_dir = dir;
  CampaignResult first;
  {
    auto gen = random_factory()();
    first = run_campaign(*gen, cfg);
    ASSERT_TRUE(first.completed);
  }
  auto gen = random_factory()();
  const CampaignResult again = resume_campaign(*gen, dir, ResumeOptions{});
  EXPECT_TRUE(again.completed);
  expect_identical(first, again);
}

TEST(ResumeDeterminism, ResumeRejectsWrongGeneratorKind) {
  const std::string dir = fresh_dir("resume_wrong_gen");
  CampaignConfig cfg = small_campaign();
  cfg.num_tests = 32;
  cfg.checkpoint_dir = dir;
  {
    auto gen = random_factory()();
    run_campaign(*gen, cfg);
  }
  baselines::TheHuzzFuzzer other(1);
  EXPECT_THROW(resume_campaign(other, dir, ResumeOptions{}),
               std::runtime_error);
}

TEST(ResumeDeterminism, ResumeRejectsMissingAndCorruptCheckpoints) {
  baselines::RandomFuzzer gen(1);
  EXPECT_THROW(
      resume_campaign(gen, fresh_dir("resume_missing"), ResumeOptions{}),
      std::runtime_error);

  const std::string dir = fresh_dir("resume_corrupt");
  CampaignConfig cfg = small_campaign();
  cfg.num_tests = 32;
  cfg.checkpoint_dir = dir;
  {
    auto g = random_factory()();
    run_campaign(*g, cfg);
  }
  {
    std::fstream f(checkpoint_path(dir),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('\x42');
  }
  EXPECT_THROW(resume_campaign(gen, dir, ResumeOptions{}),
               std::runtime_error);
}

TEST(ResumeDeterminism, PauseWithoutCheckpointDirIsRejected) {
  // A pause with nothing on disk to resume from would silently discard the
  // whole campaign; the engine must refuse up front.
  baselines::RandomFuzzer gen(1);
  CampaignConfig cfg = small_campaign();
  cfg.stop_after_tests = 32;  // checkpoint_dir left empty
  EXPECT_THROW(run_campaign(gen, cfg), std::invalid_argument);
}

TEST(ResumeDeterminism, CheckpointingRequiresSnapshotSupport) {
  // A generator without snapshot support must be rejected up front, not
  // silently produce a resume that re-rolls its state.
  class Opaque final : public InputGenerator {
   public:
    std::string name() const override { return "Opaque"; }
    std::vector<Program> next_batch(std::size_t n) override {
      return std::vector<Program>(n, Program{0x13});
    }
  };
  Opaque gen;
  CampaignConfig cfg = small_campaign();
  cfg.num_tests = 8;
  cfg.batch_size = 8;
  cfg.checkpoint_dir = fresh_dir("resume_unsupported");
  EXPECT_THROW(run_campaign(gen, cfg), std::invalid_argument);
}

TEST(ResumeDeterminism, ChatFuzzPolicyOptimizerAndRngSurviveResume) {
  // The full ML stack mid-campaign: policy + reference weights, PPO
  // optimizer moments, corpus stream and sampler RNG all cross the
  // checkpoint. Tiny model + short campaign keeps this CI-fast; stage-3
  // PPO updates still run on every batch.
  const auto factory = [] {
    ChatFuzzConfig cfg;
    cfg.model = ml::GptConfig{259, 64, 1, 2, 32};
    cfg.gen_tokens = 24;
    cfg.sample.min_new_tokens = 8;
    cfg.seed = 5;
    return std::make_unique<ChatFuzzGenerator>(cfg);
  };
  CampaignConfig cfg;
  cfg.num_tests = 24;
  cfg.batch_size = 8;
  cfg.checkpoint_every = 8;
  cfg.platform.max_steps = 256;

  CampaignResult reference;
  {
    auto gen = factory();
    CampaignConfig ref_cfg = cfg;
    ref_cfg.num_workers = 4;
    reference = run_campaign(*gen, ref_cfg);
  }
  const CampaignResult chunked = run_chunked(
      factory, cfg, fresh_dir("resume_chatfuzz"), {8, 16}, 1);
  expect_identical(reference, chunked);
}

TEST(ResumeDeterminism, TrainedChatFuzzRestoresIntoTheSameCampaign) {
  // A generator restored from the bytes saved right after train_offline()
  // runs the campaign the trained original runs, so a trained model can be
  // cloned instead of retrained. The stage-3 reward weights are config,
  // not state: the same bytes restored under other weights match a model
  // trained under those weights.
  ChatFuzzConfig cc;
  cc.model = ml::GptConfig{259, 64, 1, 2, 32};
  cc.gen_tokens = 24;
  cc.sample.min_new_tokens = 8;
  cc.seed = 5;
  cc.pretrain_samples = 32;
  cc.pretrain.epochs = 1;
  cc.cleanup_iters = 1;
  CampaignConfig cfg;
  cfg.num_tests = 24;
  cfg.batch_size = 8;
  cfg.checkpoint_every = 8;
  cfg.platform.max_steps = 256;

  const auto trained = [](const ChatFuzzConfig& c) {
    auto gen = std::make_unique<ChatFuzzGenerator>(c);
    gen->train_offline();
    return gen;
  };
  const auto restored = [](const ChatFuzzConfig& c, const std::string& b) {
    auto gen = std::make_unique<ChatFuzzGenerator>(c);
    ser::Reader r(b);
    EXPECT_TRUE(gen->restore_state(r) && r.done());
    return gen;
  };
  const auto original = trained(cc);
  ser::Writer w;
  original->save_state(w);
  const std::string bytes = w.buffer();
  const auto clone = restored(cc, bytes);
  expect_identical(run_campaign(*original, cfg), run_campaign(*clone, cfg));

  ChatFuzzConfig reward = cc;
  reward.w_incremental = 0.0;
  reward.w_standalone = 0.5;
  reward.no_improvement_penalty = 0.0;
  reward.invalid_penalty = 0.0;
  expect_identical(run_campaign(*trained(reward), cfg),
                   run_campaign(*restored(reward, bytes), cfg));
}

TEST(ResumeDeterminism, MultiDutCampaignsResumeBitIdentically) {
  // Multi-DUT campaigns cross the checkpoint too: the DUT list is part of
  // the serialized campaign config (v4), so a resumed run rebuilds the same
  // backend stacks — and must reproduce the uninterrupted result bit-exactly
  // at every cut, for each DUT set and worker count.
  const struct {
    const char* tag;
    std::vector<rtl::CoreConfig> duts;
  } sets[] = {
      {"ooo", {rtl::CoreConfig::ooo()}},
      {"both", {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()}},
  };
  for (const auto& s : sets) {
    SCOPED_TRACE(s.tag);
    CampaignConfig cfg = small_campaign();
    cfg.duts = s.duts;
    CampaignResult reference;
    {
      auto gen = lsu_factory()();
      CampaignConfig ref_cfg = cfg;
      ref_cfg.num_workers = 1;
      reference = run_campaign(*gen, ref_cfg);
      ASSERT_TRUE(reference.completed);
      EXPECT_GT(reference.raw_mismatches, 0u);  // the ooo bugs must fire
    }
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const CampaignResult chunked = run_chunked(
          lsu_factory(), cfg,
          fresh_dir(std::string("resume_multidut_") + s.tag + "_w" +
                    std::to_string(workers)),
          {32, 64}, workers);
      ASSERT_TRUE(chunked.completed);
      expect_identical(reference, chunked);
    }
  }
}

TEST(ResumeDeterminism, MultiDutResumeAcrossProcessTopologies) {
  // The full topology matrix across one resume cut: a multi-DUT campaign
  // checkpointed by a single-process run must resume bit-identically under
  // 2 worker processes (this binary re-execs itself in `worker` mode), and
  // vice versa — process topology is per-run, the DUT list is not.
  CampaignConfig cfg = small_campaign();
  cfg.duts = {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()};
  CampaignResult reference;
  {
    auto gen = random_factory()();
    CampaignConfig ref_cfg = cfg;
    ref_cfg.num_workers = 1;
    reference = run_campaign(*gen, ref_cfg);
    ASSERT_TRUE(reference.completed);
  }
  const struct {
    const char* tag;
    std::size_t procs_before, procs_after;
  } grid[] = {{"p1_to_p2", 1, 2}, {"p2_to_p1", 2, 1}};
  for (const auto& g : grid) {
    SCOPED_TRACE(g.tag);
    const std::string dir =
        fresh_dir(std::string("resume_multidut_") + g.tag);
    {
      auto gen = random_factory()();
      CampaignConfig c = cfg;
      c.checkpoint_dir = dir;
      c.num_workers = 1;
      c.dist.num_procs = g.procs_before;
      c.stop_after_tests = 40;
      ASSERT_FALSE(run_campaign(*gen, c).completed);
    }
    auto gen = random_factory(999)();  // state comes from disk, not the seed
    ResumeOptions opts;
    opts.num_workers = 2;
    opts.dist.num_procs = g.procs_after;
    expect_identical(reference, resume_campaign(*gen, dir, opts));
  }
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
