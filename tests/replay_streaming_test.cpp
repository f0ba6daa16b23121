// Replay fidelity: an archived test must re-simulate exactly as its campaign
// ran it, or a bug the campaign found could fail to reproduce in the
// engineer's replay/minimize workflow — the one property that makes the
// corpus actionable. Each case runs a small checkpointed TheHuzz campaign,
// reads the campaign's config back from the checkpoint (as `corpus
// minimize` does), and replays every archived entry at its archived test
// index: the mismatch count must be the one the campaign recorded. The
// register-randomizing and out-of-order cases are the ones a replay on a
// fixed in-order core at test index 0 gets wrong.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "baselines/mutational.h"
#include "core/campaign.h"
#include "core/replay.h"
#include "corpus/store.h"

namespace chatfuzz {
namespace {

/// Entries with a recorded mismatch minimized per campaign (each one costs
/// a few hundred co-simulations).
constexpr std::size_t kMinimizePerCampaign = 3;

/// Run the campaign and replay its archive; `with_mismatch` receives how
/// many archived entries recorded a mismatch.
void expect_archive_replays(core::CampaignConfig cfg, const std::string& tag,
                            std::size_t* with_mismatch) {
  const std::string dir =
      "replay_fidelity_" + tag + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  cfg.num_tests = 256;
  cfg.batch_size = 32;
  cfg.checkpoint_dir = dir;
  baselines::TheHuzzFuzzer gen(5);
  (void)core::run_campaign(gen, cfg);

  core::CampaignConfig stored;
  ASSERT_TRUE(core::peek_checkpoint(dir, nullptr, &stored).ok());
  corpus::CorpusStore store;
  ASSERT_TRUE(store.open(dir + "/corpus").ok());
  ASSERT_GT(store.size(), 0u);
  std::size_t differing = 0;
  std::size_t minimized = 0;
  *with_mismatch = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    core::Program p;
    ASSERT_TRUE(store.read_program(i, &p).ok());
    const corpus::StoreEntryMeta& meta = store.meta(i);
    const mismatch::Report rep = core::replay_test(p, stored, meta.test_index);
    if (rep.mismatches.size() != meta.mismatches) ++differing;
    if (meta.mismatches == 0) continue;
    ++*with_mismatch;
    if (minimized == kMinimizePerCampaign) continue;
    ++minimized;
    // The reduced test still replays, at the same index, to the first
    // signature the archived test replays to.
    SCOPED_TRACE("archived test " + std::to_string(meta.test_index));
    const core::MinimizeResult r = core::minimize(p, stored, meta.test_index);
    ASSERT_TRUE(r.reproduced);
    EXPECT_EQ(r.signature, rep.mismatches.front().signature);
    EXPECT_LE(r.reduced.size(), p.size());
    EXPECT_EQ(core::first_signature(r.reduced, stored, meta.test_index),
              r.signature);
  }
  EXPECT_EQ(differing, 0u) << "of " << store.size() << " archived entries";
  std::filesystem::remove_all(dir);
}

TEST(ReplayFidelity, DefaultCampaign) {
  std::size_t with_mismatch = 0;
  expect_archive_replays(core::CampaignConfig{}, "default", &with_mismatch);
  // The rocket preset's injected bugs make mismatching archives
  // near-certain; none would mean the minimize check exercised nothing.
  EXPECT_GT(with_mismatch, 0u);
}

TEST(ReplayFidelity, RandomizedRegisterFiles) {
  core::CampaignConfig cfg;
  cfg.randomize_regs = true;
  std::size_t with_mismatch = 0;
  expect_archive_replays(cfg, "regs", &with_mismatch);
  EXPECT_GT(with_mismatch, 0u);
}

TEST(ReplayFidelity, InorderAndOooDuts) {
  core::CampaignConfig cfg;
  cfg.duts = {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()};
  std::size_t with_mismatch = 0;
  expect_archive_replays(cfg, "multi", &with_mismatch);
  EXPECT_GT(with_mismatch, 0u);
}

TEST(ReplayFidelity, OooDutOnly) {
  core::CampaignConfig cfg;
  cfg.duts = {rtl::CoreConfig::ooo()};
  std::size_t with_mismatch = 0;
  expect_archive_replays(cfg, "ooo", &with_mismatch);
}

}  // namespace
}  // namespace chatfuzz
