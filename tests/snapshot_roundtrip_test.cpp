// Property-style round-trip tests for the serialization subsystem
// (util/serialize.h) and every snapshottable component: for randomized
// states, restore(save(x)) == x bit-exactly — verified by comparing a
// second serialization of the restored object against the first, and by
// behavioral equivalence where the component has behavior (RNG streams,
// generators). Malformed inputs — truncations, corruptions, version
// mismatches, layout mismatches — must fail cleanly, never crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "baselines/mutational.h"
#include "baselines/psofuzz.h"
#include "core/campaign.h"
#include "core/chatfuzz.h"
#include "core/checkpoint.h"
#include "corpus/generator.h"
#include "corpus/stats.h"
#include "corpus/store.h"
#include "coverage/cover.h"
#include "coverage/multi.h"
#include "mismatch/detect.h"
#include "ml/bpe.h"
#include "ml/gpt.h"
#include "ml/tokenizer.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace chatfuzz {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---- serialize core ---------------------------------------------------------

TEST(Serialize, ScalarAndVectorRoundTrip) {
  ser::Writer w;
  w.u8(0xab);
  w.u16(0xcdef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f32(3.25f);
  w.f64(-1.0 / 3.0);
  w.boolean(true);
  w.str("hello\0world");  // embedded NUL must survive (binary strings)
  w.vec_u32({1, 2, 3});
  w.vec_f32({0.5f, -0.5f});

  ser::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xcdef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 3.25f);
  EXPECT_EQ(r.f64(), -1.0 / 3.0);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), std::string("hello"));  // literal truncates at NUL
  EXPECT_EQ(r.vec_u32(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_f32(), (std::vector<float>{0.5f, -0.5f}));
  EXPECT_TRUE(r.done());
}

TEST(Serialize, EncodingIsLittleEndianStable) {
  ser::Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.buffer().size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(w.buffer()[0]), 0x04);
  EXPECT_EQ(static_cast<std::uint8_t>(w.buffer()[3]), 0x01);
}

TEST(Serialize, ReaderNeverCrashesOnTruncation) {
  ser::Writer w;
  w.u64(7);
  w.vec_u64({1, 2, 3, 4});
  w.str("payload");
  const std::string full = w.buffer();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    // ser::Reader keeps a view, so the bytes live in a named local.
    const std::string prefix = full.substr(0, cut);
    ser::Reader r(prefix);
    (void)r.u64();
    (void)r.vec_u64();
    (void)r.str();
    EXPECT_FALSE(r.done()) << "prefix of " << cut << " bytes parsed fully";
  }
}

TEST(Serialize, CorruptLengthPrefixDoesNotAllocate) {
  ser::Writer w;
  w.u64(~0ull);  // absurd element count with no elements behind it
  ser::Reader r(w.buffer());
  EXPECT_TRUE(r.vec_u64().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, FileContainerRejectsTampering) {
  const std::string path = temp_path("container.bin");
  ser::Writer w;
  w.str("the payload");
  w.u64(99);
  const ser::Status saved = ser::write_file(path, 0x41424344, 3, w.buffer());
  ASSERT_TRUE(saved.ok()) << saved.message();

  std::string payload;
  ASSERT_TRUE(ser::read_file(path, 0x41424344, 3, "test", &payload).ok());
  EXPECT_EQ(payload, w.buffer());

  // Wrong magic.
  ser::Status s = ser::read_file(path, 0x41424345, 3, "test", &payload);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.message();

  // Wrong version.
  s = ser::read_file(path, 0x41424344, 4, "test", &payload);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.message();

  // Flip one payload byte: checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char c;
    f.seekg(20);
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  s = ser::read_file(path, 0x41424344, 3, "test", &payload);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.message();
}

TEST(Serialize, FileContainerRejectsTruncation) {
  const std::string path = temp_path("container_trunc.bin");
  ser::Writer w;
  w.str(std::string(256, 'x'));
  ASSERT_TRUE(ser::write_file(path, 0x41424344, 1, w.buffer()).ok());
  std::filesystem::resize_file(path, 32);
  std::string payload;
  const ser::Status s = ser::read_file(path, 0x41424344, 1, "test", &payload);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.message();
}

TEST(Serialize, FileContainerRejectsTrailingGarbage) {
  const std::string path = temp_path("container_tail.bin");
  ser::Writer w;
  w.u64(42);
  ASSERT_TRUE(ser::write_file(path, 0x41424344, 1, w.buffer()).ok());
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "leftover bytes from an interrupted overwrite";
  }
  std::string payload;
  const ser::Status s = ser::read_file(path, 0x41424344, 1, "test", &payload);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trailing"), std::string::npos) << s.message();
}

TEST(Serialize, MissingFileReportsErrno) {
  std::string payload;
  const ser::Status s = ser::read_file(temp_path("does_not_exist.bin"),
                                       0x41424344, 1, "test", &payload);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("errno"), std::string::npos) << s.message();
}

// ---- Rng --------------------------------------------------------------------

TEST(SnapshotRoundTrip, RngContinuesExactStream) {
  Rng rng(123);
  for (int i = 0; i < 777; ++i) rng.next_u64();  // random stream position

  ser::Writer w;
  ser::write_rng(w, rng);
  ser::Reader r(w.buffer());
  Rng restored(999);  // different seed, fully overwritten
  ASSERT_TRUE(ser::read_rng(r, restored));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_u64(), restored.next_u64());
  }
}

// ---- CoverageDB -------------------------------------------------------------

cov::CoverageDB make_db(std::size_t points) {
  cov::CoverageDB db;
  for (std::size_t i = 0; i < points; ++i) {
    db.register_cond("pt" + std::to_string(i));
  }
  return db;
}

TEST(SnapshotRoundTrip, CoverageDbBitExact) {
  Rng rng(5);
  for (int iter = 0; iter < 10; ++iter) {
    cov::CoverageDB db = make_db(40);
    for (int h = 0; h < 200; ++h) {
      db.hit(static_cast<cov::PointId>(rng.below(40)), rng.chance(0.5));
    }
    ser::Writer w;
    db.save_state(w);

    cov::CoverageDB other = make_db(40);
    ser::Reader r(w.buffer());
    ASSERT_TRUE(other.restore_state(r));
    ASSERT_TRUE(r.done());
    EXPECT_EQ(other.total_covered(), db.total_covered());
    EXPECT_EQ(other.total_percent(), db.total_percent());
    ser::Writer w2;
    other.save_state(w2);
    EXPECT_EQ(w.buffer(), w2.buffer());  // bit-exact, hit counts included
  }
}

TEST(SnapshotRoundTrip, CoverageDbRejectsLayoutMismatch) {
  cov::CoverageDB db = make_db(8);
  db.hit(0, true);
  ser::Writer w;
  db.save_state(w);

  cov::CoverageDB fewer = make_db(7);
  ser::Reader r1(w.buffer());
  EXPECT_FALSE(fewer.restore_state(r1));

  // Same bin count, different point names: the fingerprint must catch it.
  cov::CoverageDB renamed;
  for (int i = 0; i < 8; ++i) renamed.register_cond("other" + std::to_string(i));
  ser::Reader r2(w.buffer());
  EXPECT_FALSE(renamed.restore_state(r2));
}

TEST(SnapshotRoundTrip, CoverageDbTruncationsFailCleanly) {
  cov::CoverageDB db = make_db(16);
  db.hit(3, true);
  ser::Writer w;
  db.save_state(w);
  for (std::size_t cut = 0; cut < w.buffer().size(); ++cut) {
    cov::CoverageDB other = make_db(16);
    const std::string prefix = w.buffer().substr(0, cut);
    ser::Reader r(prefix);
    EXPECT_FALSE(other.restore_state(r)) << "prefix " << cut;
  }
}

// ---- CtrlRegCoverage --------------------------------------------------------

TEST(SnapshotRoundTrip, CtrlRegSetPreservesMembership) {
  Rng rng(17);
  cov::CtrlRegCoverage ctrl;
  std::vector<std::uint64_t> states;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t s = rng.below(3000);  // duplicates on purpose
    states.push_back(s);
    ctrl.observe(s);
  }
  ser::Writer w;
  ctrl.save_state(w);

  cov::CtrlRegCoverage restored;
  ser::Reader r(w.buffer());
  ASSERT_TRUE(restored.restore_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(restored.distinct_states(), ctrl.distinct_states());
  // Every previously seen state must be a duplicate in the restored set.
  restored.begin_test();
  for (std::uint64_t s : states) EXPECT_FALSE(restored.observe(s));
  EXPECT_EQ(restored.test_new_states(), 0u);
  // And serialized bytes are insertion-order independent.
  ser::Writer w2;
  restored.save_state(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

// ---- MetricSuite ------------------------------------------------------------

TEST(SnapshotRoundTrip, MetricSuiteBitExact) {
  Rng rng(23);
  cov::MetricSuite suite;
  for (int i = 0; i < 400; ++i) {
    suite.observe_write(static_cast<unsigned>(rng.below(31)), rng.next_u64(),
                        rng.next_u64());
    suite.toggle().cover_bin(rng.below(suite.toggle().universe()));
    suite.fsm().cover_bin(rng.below(suite.fsm().universe()));
    suite.statement().cover_bin(rng.below(suite.statement().universe()));
  }
  ser::Writer w;
  suite.save_state(w);

  cov::MetricSuite restored;
  ser::Reader r(w.buffer());
  ASSERT_TRUE(restored.restore_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(restored.toggle().covered(), suite.toggle().covered());
  EXPECT_EQ(restored.fsm().covered(), suite.fsm().covered());
  EXPECT_EQ(restored.statement().covered(), suite.statement().covered());
  ser::Writer w2;
  restored.save_state(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(SnapshotRoundTrip, MetricSuiteTruncationsFailCleanly) {
  cov::MetricSuite suite;
  suite.toggle().cover_bin(0);
  ser::Writer w;
  suite.save_state(w);
  // Sample the cuts (the blob is a few KiB; step keeps the test fast).
  for (std::size_t cut = 0; cut < w.buffer().size(); cut += 7) {
    cov::MetricSuite restored;
    const std::string prefix = w.buffer().substr(0, cut);
    ser::Reader r(prefix);
    EXPECT_FALSE(restored.restore_state(r)) << "prefix " << cut;
  }
}

// ---- MismatchDetector -------------------------------------------------------

mismatch::Report fake_report(const std::string& sig, mismatch::Finding f,
                             std::size_t raw) {
  mismatch::Report rep;
  rep.raw_count = raw;
  mismatch::Mismatch m;
  m.kind = mismatch::Kind::kRdValue;
  m.signature = sig;
  m.finding = f;
  rep.mismatches.push_back(std::move(m));
  return rep;
}

TEST(SnapshotRoundTrip, MismatchDetectorTallyBitExact) {
  mismatch::MismatchDetector det;
  det.accumulate(fake_report("sig-a", mismatch::Finding::kBug1CacheCoherency, 3));
  det.accumulate(fake_report("sig-b", mismatch::Finding::kOther, 2));
  det.accumulate(fake_report("sig-a", mismatch::Finding::kBug1CacheCoherency, 5));
  ser::Writer w;
  det.save_state(w);

  mismatch::MismatchDetector restored;
  ser::Reader r(w.buffer());
  ASSERT_TRUE(restored.restore_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(restored.total_raw(), det.total_raw());
  EXPECT_EQ(restored.total_post_filter(), det.total_post_filter());
  EXPECT_EQ(restored.unique_count(), det.unique_count());
  EXPECT_EQ(restored.findings_seen(), det.findings_seen());
  ser::Writer w2;
  restored.save_state(w2);
  EXPECT_EQ(w.buffer(), w2.buffer());

  for (std::size_t cut = 0; cut < w.buffer().size(); ++cut) {
    mismatch::MismatchDetector other;
    const std::string prefix = w.buffer().substr(0, cut);
    ser::Reader rc(prefix);
    EXPECT_FALSE(other.restore_state(rc)) << "prefix " << cut;
  }
}

// ---- corpus store -----------------------------------------------------------

corpus::StoreEntryMeta meta_for(std::uint64_t index) {
  corpus::StoreEntryMeta m;
  m.test_index = index;
  m.standalone_bins = static_cast<std::uint32_t>(index * 3);
  m.incremental_bins = static_cast<std::uint32_t>(index % 5);
  m.mismatches = static_cast<std::uint32_t>(index % 2);
  m.ctrl_new = index * 7;
  m.new_bins = {static_cast<std::uint32_t>(index),
                static_cast<std::uint32_t>(index + 100)};
  return m;
}

TEST(SnapshotRoundTrip, CorpusStorePersistsAcrossReopen) {
  const std::string dir = temp_path("store_roundtrip");
  std::filesystem::remove_all(dir);
  Rng rng(31);

  std::vector<core::Program> programs;
  {
    corpus::CorpusStore store;
    ASSERT_TRUE(store.open(dir, /*shard_capacity=*/4).ok());
    for (std::uint64_t i = 0; i < 11; ++i) {  // spans three shards
      core::Program p;
      for (int k = 0; k < 1 + static_cast<int>(rng.below(20)); ++k) {
        p.push_back(rng.next_u32());
      }
      programs.push_back(p);
      ASSERT_TRUE(store.append(p, meta_for(i)).ok());
    }
    ASSERT_TRUE(store.flush().ok());
    EXPECT_TRUE(std::filesystem::exists(store.shard_path(2)));
  }

  corpus::CorpusStore reopened;
  ASSERT_TRUE(reopened.open(dir).ok());
  ASSERT_EQ(reopened.size(), programs.size());
  EXPECT_EQ(reopened.shard_capacity(), 4u);
  for (std::size_t i = 0; i < programs.size(); ++i) {
    core::Program p;
    ASSERT_TRUE(reopened.read_program(i, &p).ok());
    EXPECT_EQ(p, programs[i]) << "entry " << i;
    EXPECT_EQ(reopened.meta(i).test_index, i);
    EXPECT_EQ(reopened.meta(i).ctrl_new, meta_for(i).ctrl_new);
    EXPECT_EQ(reopened.meta(i).new_bins, meta_for(i).new_bins);
  }
}

TEST(SnapshotRoundTrip, CheckpointBytesIgnoreDispatchEngine) {
  // The superblock span caches are derived microarchitectural state and
  // must not leak into a checkpoint. A campaign cut at the same test count
  // must write byte-identical campaign.ckpt files with superblocks on and
  // off.
  const auto run_cut = [](const char* tag, bool superblocks) {
    const std::string dir = temp_path(std::string("ckpt_sb_") + tag);
    std::filesystem::remove_all(dir);
    baselines::RandomFuzzer gen(11);
    core::CampaignConfig cfg;
    cfg.num_tests = 96;
    cfg.batch_size = 32;
    cfg.checkpoint_every = 10;
    cfg.platform.max_steps = 256;
    cfg.superblocks = superblocks;
    cfg.checkpoint_dir = dir;
    cfg.stop_after_tests = 40;
    core::run_campaign(gen, cfg);
    std::ifstream f(core::checkpoint_path(dir), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  const std::string with = run_cut("on", true);
  ASSERT_FALSE(with.empty());
  EXPECT_EQ(with, run_cut("off", false));
}

TEST(SnapshotRoundTrip, CheckpointCampaignConfigRoundTripsDutList) {
  // v4: the campaign config carries the multi-DUT list. The restored list
  // must reproduce every backend field — the coverage blob's layout is the
  // concatenation of these backends' instrumentation, so a silently
  // defaulted field would restore against the wrong DB shape.
  core::CampaignConfig cfg;
  cfg.seed = 99;
  cfg.num_tests = 7;
  cfg.duts = {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()};
  // Perturb the ooo entry away from its preset so defaults cannot pass
  // vacuously.
  cfg.duts[1].rob_size = 48;
  cfg.duts[1].phys_regs = 96;
  cfg.duts[1].sq_size = 12;
  cfg.duts[1].fetch_width = 1;
  cfg.duts[1].bugs.ooo_early_store_drain = false;

  ser::Writer w;
  core::write_campaign_config(w, cfg);
  core::CampaignConfig back;
  ser::Reader r(w.buffer());
  ASSERT_TRUE(core::read_campaign_config(r, back));
  ASSERT_TRUE(r.done());
  ASSERT_EQ(back.duts.size(), 2u);
  EXPECT_FALSE(back.duts[0].out_of_order);
  EXPECT_TRUE(back.duts[1].out_of_order);
  EXPECT_EQ(back.duts[1].rob_size, 48u);
  EXPECT_EQ(back.duts[1].phys_regs, 96u);
  EXPECT_EQ(back.duts[1].sq_size, 12u);
  EXPECT_EQ(back.duts[1].fetch_width, 1u);
  EXPECT_TRUE(back.duts[1].bugs.ooo_broken_fwd);
  EXPECT_FALSE(back.duts[1].bugs.ooo_early_store_drain);
  EXPECT_TRUE(back.duts[1].bugs.ooo_missing_squash);

  // Bit-exact: re-serializing the restored config reproduces the bytes.
  ser::Writer w2;
  core::write_campaign_config(w2, back);
  EXPECT_EQ(w.buffer(), w2.buffer());

  // Truncations fail cleanly — including cuts inside the DUT-count prefix
  // and the per-backend records (the n_duts payload-bound guard).
  for (std::size_t cut = 0; cut < w.buffer().size(); cut += 3) {
    core::CampaignConfig other;
    const std::string prefix = w.buffer().substr(0, cut);
    ser::Reader rc(prefix);
    EXPECT_FALSE(core::read_campaign_config(rc, other)) << "prefix " << cut;
  }
}

TEST(SnapshotRoundTrip, CheckpointCampaignConfigRejectsUnrunnableDutGeometry) {
  // Checkpoints and the dist config frame carry DUT configs, and the cores
  // are built straight from them: the reader must refuse geometry the
  // models cannot run (a zero divisor, a line of partial words, structures
  // without bound) on the primary core and in the DUT list alike.
  const auto encode = [](const core::CampaignConfig& cfg) {
    ser::Writer w;
    core::write_campaign_config(w, cfg);
    return w.buffer();
  };
  // The shipped presets read back and re-serialize byte for byte.
  for (const rtl::CoreConfig& preset :
       {rtl::CoreConfig::rocket(), rtl::CoreConfig::boom(),
        rtl::CoreConfig::ooo()}) {
    core::CampaignConfig cfg;
    cfg.core = preset;
    cfg.duts = {preset};
    const std::string bytes = encode(cfg);
    core::CampaignConfig back;
    ser::Reader r(bytes);
    ASSERT_TRUE(core::read_campaign_config(r, back)) << preset.name;
    EXPECT_TRUE(r.done()) << preset.name;
    EXPECT_EQ(encode(back), bytes) << preset.name;
  }
  struct Hostile {
    const char* what;
    void (*apply)(rtl::CoreConfig&);
  };
  const Hostile kHostile[] = {
      {"icache_sets = 0", [](rtl::CoreConfig& c) { c.icache_sets = 0; }},
      {"dcache_sets = 0", [](rtl::CoreConfig& c) { c.dcache_sets = 0; }},
      {"icache_ways = 0", [](rtl::CoreConfig& c) { c.icache_ways = 0; }},
      {"dcache_ways = 0", [](rtl::CoreConfig& c) { c.dcache_ways = 0; }},
      {"btb_entries = 0", [](rtl::CoreConfig& c) { c.btb_entries = 0; }},
      {"icache_line = 0", [](rtl::CoreConfig& c) { c.icache_line = 0; }},
      {"icache_line = 6", [](rtl::CoreConfig& c) { c.icache_line = 6; }},
      {"dcache_line = 2", [](rtl::CoreConfig& c) { c.dcache_line = 2; }},
      {"icache 2^32 ways", [](rtl::CoreConfig& c) { c.icache_ways = ~0u; }},
      {"dcache 16 MiB",
       [](rtl::CoreConfig& c) {
         c.dcache_sets = 1u << 12;
         c.dcache_ways = 64;
         c.dcache_line = 64;
       }},
      {"btb_entries = 2^32 - 1",
       [](rtl::CoreConfig& c) { c.btb_entries = ~0u; }},
      {"rob_size = 2^31", [](rtl::CoreConfig& c) { c.rob_size = 1u << 31; }},
      {"sq_size = 2^32 - 1", [](rtl::CoreConfig& c) { c.sq_size = ~0u; }},
  };
  for (const Hostile& h : kHostile) {
    for (int slot = 0; slot < 2; ++slot) {
      core::CampaignConfig cfg;
      cfg.duts = {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()};
      h.apply(slot == 0 ? cfg.core : cfg.duts[1]);
      const std::string bytes = encode(cfg);
      core::CampaignConfig back;
      ser::Reader r(bytes);
      EXPECT_FALSE(core::read_campaign_config(r, back))
          << h.what << (slot == 0 ? " (core)" : " (duts[1])");
    }
  }
}

TEST(SnapshotRoundTrip, CheckpointRejectsPreMultiDutVersions) {
  // A pre-v4 checkpoint has no DUT list and its coverage blob predates the
  // per-DUT DB layout: load must refuse it with a version diagnostic, not
  // misparse it against the new schema.
  const std::string dir = temp_path("ckpt_oldver");
  std::filesystem::remove_all(dir);
  core::CheckpointData data;
  data.cfg.duts = {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()};
  data.fuzzer = "Random";
  data.tests_run = 40;
  ASSERT_TRUE(core::save_checkpoint(dir, data).ok());
  core::CheckpointData in;
  ASSERT_TRUE(core::load_checkpoint(dir, &in).ok());
  ASSERT_EQ(in.cfg.duts.size(), 2u);

  // Re-wrap the same payload under the previous container version
  // (0x43465A4B is the checkpoint magic; current version is 4).
  std::string payload;
  ASSERT_TRUE(
      ser::read_file(core::checkpoint_path(dir), 0x43465A4B, 4, "ckpt",
                     &payload)
          .ok());
  ASSERT_TRUE(
      ser::write_file(core::checkpoint_path(dir), 0x43465A4B, 3, payload)
          .ok());
  core::CheckpointData stale;
  const ser::Status s = core::load_checkpoint(dir, &stale);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.message();
}

TEST(SnapshotRoundTrip, CorpusStoreTruncateRollsBackBytes) {
  const std::string dir = temp_path("store_truncate");
  std::filesystem::remove_all(dir);
  corpus::CorpusStore store;
  ASSERT_TRUE(store.open(dir, 4).ok());
  const core::Program prog{0x13, 0x6f, 0x93};
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.append(prog, meta_for(i)).ok());
  }
  ASSERT_TRUE(store.flush().ok());
  const auto index_bytes = [&] {
    std::ifstream f(dir + "/index.bin", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  // Truncate to 6 and re-append the same 4 entries: files must be
  // byte-identical to the uninterrupted 10-entry store.
  const std::string full_index = index_bytes();
  ASSERT_TRUE(store.truncate(6).ok());
  EXPECT_EQ(store.size(), 6u);
  EXPECT_FALSE(std::filesystem::exists(store.shard_path(2)));
  for (std::uint64_t i = 6; i < 10; ++i) {
    ASSERT_TRUE(store.append(prog, meta_for(i)).ok());
  }
  ASSERT_TRUE(store.flush().ok());
  EXPECT_EQ(index_bytes(), full_index);
}

TEST(SnapshotRoundTrip, CorpusStoreRejectsCorruptIndex) {
  const std::string dir = temp_path("store_corrupt");
  std::filesystem::remove_all(dir);
  {
    corpus::CorpusStore store;
    ASSERT_TRUE(store.open(dir).ok());
    ASSERT_TRUE(store.append({0x13}, meta_for(0)).ok());
    ASSERT_TRUE(store.flush().ok());
  }
  {
    std::fstream f(dir + "/index.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);
    f.put('\x7f');
  }
  corpus::CorpusStore store;
  const ser::Status s = store.open(dir);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.message();
}

TEST(SnapshotRoundTrip, CorpusStoreReportsMissingShardBytes) {
  const std::string dir = temp_path("store_missing_shard");
  std::filesystem::remove_all(dir);
  {
    corpus::CorpusStore store;
    ASSERT_TRUE(store.open(dir).ok());
    ASSERT_TRUE(store.append({1, 2, 3, 4}, meta_for(0)).ok());
    ASSERT_TRUE(store.flush().ok());
  }
  std::filesystem::resize_file(temp_path("store_missing_shard") +
                                   "/shard-0000.bin",
                               4);  // drop 3 of the 4 words
  corpus::CorpusStore store;
  ASSERT_TRUE(store.open(dir).ok());
  core::Program p;
  const ser::Status s = store.read_program(0, &p);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.message();
}

namespace {

/// A store whose index has a valid checksum but claims an entry of
/// 2^32 - 1 words (16 GiB) in a 16-byte shard.
std::string hostile_store(const char* name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  {
    corpus::CorpusStore store;
    EXPECT_TRUE(store.open(dir).ok());
    EXPECT_TRUE(store.append({1, 2, 3, 4}, meta_for(0)).ok());
    EXPECT_TRUE(store.flush().ok());
  }
  // Index v3 payload: capacity u64, count u64, then entry 0's word count.
  // 0x43465A43 is the index magic.
  const std::string index = dir + "/index.bin";
  std::string payload;
  EXPECT_TRUE(ser::read_file(index, 0x43465A43, 3, "index", &payload).ok());
  EXPECT_GE(payload.size(), 20u);
  payload.replace(16, 4, 4, '\xff');
  EXPECT_TRUE(ser::write_file(index, 0x43465A43, 3, payload).ok());
  return dir;
}

}  // namespace

TEST(SnapshotRoundTrip, CorpusStoreChecksShardSizeBeforeAllocating) {
  // read_program must refuse the claim against the shard's real size
  // instead of allocating it.
  const std::string dir = hostile_store("store_oversized_entry");
  corpus::CorpusStore store;
  ASSERT_TRUE(store.open(dir).ok());
  EXPECT_EQ(store.program_words(0), 0xFFFFFFFFu);
  EXPECT_EQ(store.num_shards(), 1u);
  core::Program p;
  ser::Status s = store.read_program(0, &p);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.message();
  // The resume path's rollback must not grow the shard to the claim either.
  s = store.truncate(1);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.message();
  EXPECT_EQ(std::filesystem::file_size(store.shard_path(0)), 16u);
}

TEST(SnapshotRoundTrip, CorpusStatsChecksShardSizes) {
  // `corpus stats` sums the index's word counts; it must not report 16 GiB
  // of programs from a 16-byte shard, but fail as the readers do.
  const std::string dir = hostile_store("store_oversized_stats");
  corpus::CorpusStore store;
  ASSERT_TRUE(store.open(dir).ok());
  corpus::StoreStats stats;
  const ser::Status s = corpus::collect_store_stats(store, &stats);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("is truncated"), std::string::npos)
      << s.message();
  // A shard that holds what the index claims passes, with the same words.
  const std::string ok_dir = temp_path("store_stats_ok");
  std::filesystem::remove_all(ok_dir);
  corpus::CorpusStore fine;
  ASSERT_TRUE(fine.open(ok_dir, /*shard_capacity=*/1).ok());
  ASSERT_TRUE(fine.append({1, 2, 3, 4}, meta_for(0)).ok());
  ASSERT_TRUE(fine.append({5}, meta_for(1)).ok());
  ASSERT_TRUE(fine.flush().ok());
  ASSERT_TRUE(corpus::collect_store_stats(fine, &stats).ok());
  EXPECT_EQ(stats.program_words, 5u);
  EXPECT_EQ(stats.shards, 2u);
  // Cutting the second shard short fails the whole report.
  std::filesystem::resize_file(fine.shard_path(1), 3);
  EXPECT_FALSE(corpus::collect_store_stats(fine, &stats).ok());
}

// ---- Gpt model files (the save/load diagnostics satellite) ------------------

TEST(SnapshotRoundTrip, GptLoadDiagnosticsAreSpecific) {
  const ml::GptConfig cfg = ml::GptConfig::tiny();
  ml::Gpt model(cfg, 7);
  const std::string path = temp_path("gpt_diag.bin");
  ASSERT_TRUE(model.save(path).ok());

  // Missing file: errno surfaces.
  ser::Status s = model.load(temp_path("gpt_missing.bin"));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("errno"), std::string::npos) << s.message();

  // Truncated file.
  std::filesystem::resize_file(path, 24);
  s = model.load(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.message();

  // Unwritable path on save: errno surfaces.
  s = model.save(temp_path("no_such_dir") + "/model.bin");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("errno"), std::string::npos) << s.message();
}

// ---- BPE vocab --------------------------------------------------------------

TEST(SnapshotRoundTrip, BpeVocabBitExact) {
  corpus::CorpusGenerator gen(corpus::CorpusConfig{}, 3);
  const auto data = gen.dataset(40);
  const ml::BpeTokenizer bpe = ml::BpeTokenizer::train(data, 300);
  ASSERT_GT(bpe.num_merges(), 0);

  ser::Writer w;
  bpe.save_state(w);
  ml::BpeTokenizer restored = ml::BpeTokenizer::train(data, 259);  // no merges
  ser::Reader r(w.buffer());
  ASSERT_TRUE(restored.restore_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(restored.vocab_size(), bpe.vocab_size());
  EXPECT_EQ(restored.serialize(), bpe.serialize());
  EXPECT_EQ(restored.encode(data[0]), bpe.encode(data[0]));

  for (std::size_t cut = 0; cut + 1 < w.buffer().size(); cut += 3) {
    ml::BpeTokenizer other = ml::BpeTokenizer::train(data, 259);
    const std::string prefix = w.buffer().substr(0, cut);
    ser::Reader rc(prefix);
    EXPECT_FALSE(other.restore_state(rc)) << "prefix " << cut;
  }
}

// ---- generators -------------------------------------------------------------

/// Behavioral bit-exactness: a restored generator must produce the same
/// batches and react to the same feedback as the original from here on.
template <typename Gen>
void expect_same_future(Gen& a, Gen& b, std::size_t batches) {
  for (std::size_t i = 0; i < batches; ++i) {
    const auto ba = a.next_batch(8);
    const auto bb = b.next_batch(8);
    ASSERT_EQ(ba, bb) << "batch " << i;
    // Synthetic feedback so corpus-retention paths run too.
    std::vector<cov::TestCoverage> tcs(ba.size());
    std::vector<std::uint64_t> ctrl(ba.size(), 0);
    for (std::size_t t = 0; t < ba.size(); ++t) {
      tcs[t].standalone_bins = 5 + t;
      tcs[t].incremental_bins = t % 3;
      tcs[t].total_bins = 100 + t;
      tcs[t].universe_bins = 1000;
      ctrl[t] = t % 4;
    }
    core::Feedback fb;
    fb.batch = &ba;
    fb.coverages = &tcs;
    fb.ctrl_new_states = &ctrl;
    a.feedback(fb);
    core::Feedback fb2 = fb;
    fb2.batch = &bb;
    b.feedback(fb2);
  }
}

TEST(SnapshotRoundTrip, MutationalFuzzerContinuesIdentically) {
  baselines::TheHuzzFuzzer original(42);
  baselines::TheHuzzFuzzer warmup(42);
  expect_same_future(original, warmup, 3);  // advance both to a rich state

  ser::Writer w;
  original.save_state(w);
  baselines::TheHuzzFuzzer restored(1234);  // different seed, overwritten
  ser::Reader r(w.buffer());
  ASSERT_TRUE(restored.restore_state(r));
  ASSERT_TRUE(r.done());
  expect_same_future(original, restored, 3);

  for (std::size_t cut = 0; cut < w.buffer().size(); cut += 11) {
    baselines::TheHuzzFuzzer other(1);
    const std::string prefix = w.buffer().substr(0, cut);
    ser::Reader rc(prefix);
    EXPECT_FALSE(other.restore_state(rc)) << "prefix " << cut;
  }
}

// ---- ChatFuzz pending rollouts ----------------------------------------------

namespace {

core::ChatFuzzConfig tiny_chatfuzz() {
  core::ChatFuzzConfig cc;
  cc.model = ml::GptConfig{ml::Tokenizer::kVocabSize, 32, 1, 2, 16};
  cc.gen_tokens = 8;
  cc.seed = 5;
  return cc;
}

/// `gen`'s checkpoint bytes with `gens` as its pending rollouts. Those, and
/// their prompt lengths, are the last fields ChatFuzzGenerator::save_state
/// writes; an idle generator ends with two empty ones (16 zero bytes).
std::string with_pending(const core::ChatFuzzGenerator& gen,
                         const std::vector<ml::Generation>& gens) {
  ser::Writer idle;
  gen.save_state(idle);
  std::string bytes = idle.buffer();
  EXPECT_EQ(bytes.substr(bytes.size() - 16), std::string(16, '\0'));
  bytes.resize(bytes.size() - 16);
  ser::Writer tail;
  tail.u64(gens.size());
  for (const ml::Generation& g : gens) {
    tail.vec_u32(std::vector<std::uint32_t>(g.prompt.begin(), g.prompt.end()));
    tail.vec_u32(
        std::vector<std::uint32_t>(g.response.begin(), g.response.end()));
    tail.vec_f32(g.response_logps);
  }
  tail.vec_size(std::vector<std::size_t>(gens.size(), 1));
  return bytes + tail.buffer();
}

}  // namespace

TEST(SnapshotRoundTrip, ChatFuzzRejectsCorruptPendingRollouts) {
  const core::ChatFuzzConfig cc = tiny_chatfuzz();
  const core::ChatFuzzGenerator source(cc);
  ml::Generation good;
  good.prompt = {ml::Tokenizer::kBos, 19, 3};
  good.response = {7, 200, ml::Tokenizer::kPad};
  good.response_logps = {-1.f, -2.f, -0.5f};

  // A well-formed rollout restores, and the next feedback trains on it.
  {
    core::ChatFuzzGenerator gen(cc);
    const std::string bytes = with_pending(source, {good});
    ser::Reader r(bytes);
    ASSERT_TRUE(gen.restore_state(r));
    ASSERT_TRUE(r.done());
    std::vector<cov::TestCoverage> tcs(1);
    core::Feedback fb;
    fb.coverages = &tcs;
    gen.feedback(fb);
    EXPECT_EQ(gen.last_ppo_stats().num_actions, good.response.size());
  }

  // Each of these would break that feedback: a token past the vocabulary
  // reads the embedding table out of bounds, a short logp list is read past
  // its end, and an empty prompt has no position to score the first action.
  struct Case {
    std::string what;
    ml::Generation g;
  };
  std::vector<Case> cases;
  const auto variant = [&](std::string what, auto mutate) {
    ml::Generation g = good;
    mutate(g);
    cases.push_back({std::move(what), std::move(g)});
  };
  variant("response token == vocab", [](ml::Generation& g) {
    g.response[1] = ml::Tokenizer::kVocabSize;
  });
  variant("prompt token 2^32-1", [](ml::Generation& g) { g.prompt[1] = -1; });
  variant("fewer logps than tokens",
          [](ml::Generation& g) { g.response_logps.pop_back(); });
  variant("more logps than tokens",
          [](ml::Generation& g) { g.response_logps.push_back(-1.f); });
  variant("empty prompt", [](ml::Generation& g) { g.prompt.clear(); });
  for (const Case& c : cases) {
    core::ChatFuzzGenerator gen(cc);
    const std::string bytes = with_pending(source, {good, c.g});
    ser::Reader r(bytes);
    EXPECT_FALSE(gen.restore_state(r)) << c.what;
  }
}

TEST(SnapshotRoundTrip, PsoFuzzerContinuesIdentically) {
  baselines::PsoFuzzer original(7);
  baselines::PsoFuzzer warmup(7);
  expect_same_future(original, warmup, 3);

  ser::Writer w;
  original.save_state(w);
  baselines::PsoFuzzer restored(99);
  ser::Reader r(w.buffer());
  ASSERT_TRUE(restored.restore_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(restored.swarm_updates(), original.swarm_updates());
  expect_same_future(original, restored, 2);
}

TEST(SnapshotRoundTrip, CorpusGeneratorContinuesIdentically) {
  corpus::CorpusGenerator original(corpus::CorpusConfig{}, 11);
  (void)original.dataset(5);  // advance the stream
  ser::Writer w;
  original.save_state(w);

  corpus::CorpusGenerator restored(corpus::CorpusConfig{}, 999);
  ser::Reader r(w.buffer());
  ASSERT_TRUE(restored.restore_state(r));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(original.function(), restored.function());
    EXPECT_EQ(original.prompt(3), restored.prompt(3));
  }
}

TEST(SnapshotRoundTrip, VmCorpusGeneratorContinuesIdentically) {
  // Priv/Sv39-dense configuration: the VM idiom consumes far more RNG draws
  // per sample (PTE flag rolls, delegation rolls, stale-TLB tail) than the
  // plain idioms, so the stream position a snapshot must capture is much
  // richer. The config itself is NOT part of the snapshot — the restoring
  // side supplies it, and the stream must continue bit-exactly under it.
  corpus::CorpusConfig cc;
  cc.w_vm = 4.0;
  cc.w_priv = 2.0;
  corpus::CorpusGenerator original(cc, 21);
  (void)original.dataset(5);
  ser::Writer w;
  original.save_state(w);

  corpus::CorpusGenerator restored(cc, 777);
  ser::Reader r(w.buffer());
  ASSERT_TRUE(restored.restore_state(r));
  bool saw_vm_idiom = false;
  for (int i = 0; i < 8; ++i) {
    const corpus::Program p = original.function();
    EXPECT_EQ(p, restored.function());
    for (const std::uint32_t word : p) {
      if (word == 0x12000073u || word == 0x30200073u) {  // sfence.vma / mret
        saw_vm_idiom = true;
      }
    }
  }
  // Guard against a vacuous pass: the dense-VM stream must actually emit
  // privileged bring-up sequences.
  EXPECT_TRUE(saw_vm_idiom);
}

}  // namespace
}  // namespace chatfuzz
