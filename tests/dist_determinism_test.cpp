// The distributed campaign subsystem's core guarantee: fanning a campaign
// out across worker PROCESSES (fuzz --procs) changes where tests are
// simulated and nothing else. For any process count x worker-thread count x
// lease schedule — including mid-campaign worker kills with lease
// reassignment, hung-worker timeouts, and a checkpoint/resume cut that
// switches topology — the CampaignResult, the coverage DB bytes, the
// mismatch signature DB bytes, and the corpus-store bytes are bit-identical
// to a single-process run. Plus the wire-robustness contract: malformed
// frames and payloads error out through ser::Status, they never crash.
//
// This binary is its own worker fleet: main() routes the
// `worker --connect` argv (what the coordinator re-execs /proc/self/exe
// with) into dist::maybe_worker_main before gtest ever runs.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "baselines/mutational.h"
#include "campaign_equality.h"
#include "core/campaign.h"
#include "core/checkpoint.h"
#include "core/sim_worker.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/worker.h"

namespace chatfuzz::core {
namespace {

namespace fs = std::filesystem;

// Small but not trivial: 3 batches of 32, a checkpoint interval that does
// not divide the batch size, and a lease size that yields several leases
// per batch per worker (reassignment has room to happen).
CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.num_tests = 96;
  cfg.batch_size = 32;
  cfg.checkpoint_every = 10;
  cfg.platform.max_steps = 256;
  cfg.dist.lease_tests = 4;
  return cfg;
}

/// Unique scratch dir under the build tree.
std::string fresh_dir(const char* tag) {
  static int counter = 0;
  std::string dir = std::string("dist_test_") + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++);
  fs::remove_all(dir);
  return dir;
}

CampaignResult run_with(CampaignConfig cfg, std::size_t procs,
                        std::size_t workers, const std::string& dir,
                        std::uint64_t gen_seed = 11) {
  baselines::RandomFuzzer gen(gen_seed);
  cfg.dist.num_procs = procs;
  cfg.num_workers = workers;
  cfg.checkpoint_dir = dir;
  return run_campaign(gen, cfg);
}

TEST(DistDeterminism, ProcessMatrixIsBitIdentical) {
  const CampaignConfig cfg = small_campaign();
  const std::string base_dir = fresh_dir("base");
  const CampaignResult base = run_with(cfg, 1, 1, base_dir);
  const struct { std::size_t procs, workers; } grid[] = {
      {1, 4}, {2, 1}, {2, 4}, {4, 1}, {4, 4}};
  for (const auto& g : grid) {
    const std::string dir = fresh_dir("grid");
    const CampaignResult r = run_with(cfg, g.procs, g.workers, dir);
    SCOPED_TRACE("procs=" + std::to_string(g.procs) +
                 " workers=" + std::to_string(g.workers));
    expect_identical(base, r);
    expect_same_persisted_state(base_dir, dir);
    fs::remove_all(dir);
  }
  fs::remove_all(base_dir);
}

TEST(DistDeterminism, MetricGuidanceCrossesProcessBoundary) {
  // Toggle guidance + the full metric suite: per-test metric-bin journals
  // ride the wire and must fold exactly like in-process artifacts.
  CampaignConfig cfg = small_campaign();
  cfg.guidance = GuidanceMetric::kToggle;
  cfg.collect_multi_metrics = true;
  const std::string da = fresh_dir("tog_a"), db = fresh_dir("tog_b");
  const CampaignResult a = run_with(cfg, 1, 1, da);
  const CampaignResult b = run_with(cfg, 2, 4, db);
  expect_identical(a, b);
  expect_same_persisted_state(da, db);
  EXPECT_GT(a.toggle_percent, 0.0);
  fs::remove_all(da);
  fs::remove_all(db);
}

TEST(DistDeterminism, CtrlRegGuidanceCrossesProcessBoundary) {
  // Ctrl-reg guidance is the scheduling-sensitive one: worker-local dedup
  // sets must not under-report across reassigned/reordered leases (workers
  // reset them at lease boundaries; the coordinator set dedups the rest).
  CampaignConfig cfg = small_campaign();
  cfg.guidance = GuidanceMetric::kCtrlReg;
  const std::string da = fresh_dir("ctrl_a"), db = fresh_dir("ctrl_b");
  const CampaignResult a = run_with(cfg, 1, 1, da);
  const CampaignResult b = run_with(cfg, 3, 2, db);
  expect_identical(a, b);
  expect_same_persisted_state(da, db);
  EXPECT_GT(a.curve.back().ctrl_states, 0u);
  fs::remove_all(da);
  fs::remove_all(db);
}

TEST(DistDeterminism, WorkerKillMidCampaignIsTransparent) {
  // SIGKILL a worker mid-campaign: its outstanding leases re-issue to the
  // survivor and the folded output must not move a bit.
  CampaignConfig cfg = small_campaign();
  cfg.dist.debug_kill_worker = 1;
  cfg.dist.debug_kill_after_results = 2;
  const std::string da = fresh_dir("kill_a"), db = fresh_dir("kill_b");
  const CampaignResult clean = run_with(small_campaign(), 1, 1, da);
  const CampaignResult killed = run_with(cfg, 2, 1, db);
  expect_identical(clean, killed);
  expect_same_persisted_state(da, db);
  fs::remove_all(da);
  fs::remove_all(db);
}

TEST(DistDeterminism, KillReassignsLeasesWithoutDoubleFold) {
  // Coordinator-level view of the same scenario, where the stats are
  // visible: the lost worker's lease re-issues exactly (no lease folds
  // twice — otherwise artifact slots would double-apply and the campaign
  // totals above could not match).
  CampaignConfig cfg = small_campaign();
  cfg.dist.num_procs = 2;
  cfg.num_workers = 1;
  cfg.dist.debug_kill_worker = 1;
  cfg.dist.debug_kill_after_results = 1;
  baselines::RandomFuzzer gen(11);
  const std::vector<Program> batch = gen.next_batch(32);
  std::vector<TestArtifact> killed_arts(batch.size());
  dist::Coordinator killed(cfg, /*use_suite=*/false);
  killed.run_batch(batch, 0, killed_arts);
  EXPECT_EQ(killed.stats().workers_lost, 1u);
  EXPECT_GE(killed.stats().leases_reissued, 1u);
  EXPECT_GE(killed.stats().leases_issued, 8u);  // 32 tests / lease_tests 4

  CampaignConfig clean_cfg = small_campaign();
  clean_cfg.dist.num_procs = 2;
  clean_cfg.num_workers = 1;
  std::vector<TestArtifact> clean_arts(batch.size());
  dist::Coordinator clean(clean_cfg, false);
  clean.run_batch(batch, 0, clean_arts);
  EXPECT_EQ(clean.stats().workers_lost, 0u);
  ASSERT_EQ(clean_arts.size(), killed_arts.size());
  for (std::size_t i = 0; i < clean_arts.size(); ++i) {
    SCOPED_TRACE("test " + std::to_string(i));
    const TestArtifact& a = clean_arts[i];
    const TestArtifact& b = killed_arts[i];
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.ctrl_states, b.ctrl_states);
    ASSERT_EQ(a.cond_bins.size(), b.cond_bins.size());
    for (std::size_t j = 0; j < a.cond_bins.size(); ++j) {
      EXPECT_EQ(a.cond_bins[j].bin, b.cond_bins[j].bin);
      EXPECT_EQ(a.cond_bins[j].hits, b.cond_bins[j].hits);
    }
    EXPECT_EQ(a.report.raw_count, b.report.raw_count);
    EXPECT_EQ(a.report.mismatches.size(), b.report.mismatches.size());
  }
}

TEST(DistDeterminism, HungWorkerTimesOutAndLeaseReissues) {
  CampaignConfig cfg = small_campaign();
  cfg.dist.num_procs = 2;
  cfg.num_workers = 1;
  cfg.dist.debug_hang_worker = 0;       // worker 0 wedges on its 1st lease
  cfg.dist.lease_timeout_ms = 1500;
  baselines::RandomFuzzer gen(11);
  const std::vector<Program> batch = gen.next_batch(32);
  std::vector<TestArtifact> arts(batch.size());
  dist::Coordinator coord(cfg, false);
  coord.run_batch(batch, 0, arts);
  EXPECT_EQ(coord.stats().workers_lost, 1u);
  EXPECT_GE(coord.stats().leases_reissued, 1u);
  EXPECT_EQ(coord.live_workers(), 1u);
  // The survivor completed everything: every artifact slot was filled.
  for (std::size_t i = 0; i < arts.size(); ++i) {
    EXPECT_GT(arts[i].steps, 0u) << "artifact slot " << i << " never filled";
  }
}

TEST(DistDeterminism, CampaignFailsCleanlyWhenNoWorkerSurvives) {
  CampaignConfig cfg = small_campaign();
  cfg.dist.num_procs = 2;
  // Spawns fine, exits immediately without ever speaking the protocol.
  cfg.dist.worker_exe = "/bin/true";
  baselines::RandomFuzzer gen(11);
  cfg.checkpoint_dir = fresh_dir("dead");
  // Fails fast: once every spawned child has exited, neither the loopback
  // dial window nor the reconnect window is worth waiting out.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(run_campaign(gen, cfg), std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  fs::remove_all(cfg.checkpoint_dir);
}

TEST(DistDeterminism, CheckpointResumeCutCanSwitchTopology) {
  // Pause a 2-process campaign at a lease-aligned checkpoint boundary,
  // resume it with 4 processes (and a different thread count): the stitched
  // run must be bit-identical to an uninterrupted single-process campaign.
  const CampaignConfig cfg = small_campaign();
  const std::string da = fresh_dir("resume_a"), db = fresh_dir("resume_b");
  const CampaignResult uninterrupted = run_with(cfg, 1, 1, da);

  {
    baselines::RandomFuzzer gen(11);
    CampaignConfig first = cfg;
    first.dist.num_procs = 2;
    first.num_workers = 1;
    first.checkpoint_dir = db;
    first.stop_after_tests = 40;
    const CampaignResult partial = run_campaign(gen, first);
    EXPECT_FALSE(partial.completed);
    EXPECT_LT(partial.tests_run, cfg.num_tests);
  }
  baselines::RandomFuzzer gen2(11);  // shell; state restores from disk
  ResumeOptions opts;
  opts.num_workers = 4;
  opts.dist.num_procs = 4;
  opts.dist.lease_tests = cfg.dist.lease_tests;
  const CampaignResult resumed = resume_campaign(gen2, db, opts);
  EXPECT_TRUE(resumed.completed);
  expect_identical(uninterrupted, resumed);
  expect_same_persisted_state(da, db);
  fs::remove_all(da);
  fs::remove_all(db);
}

TEST(DistDeterminism, SuperblockToggleCrossProcessBoundary) {
  // The dispatch engine rides the config wire (it is a per-run knob, never
  // checkpointed): a 2-process campaign with superblocks OFF must fold to
  // the same result and persisted bytes as a single-process superblock
  // run.
  const CampaignConfig cfg = small_campaign();
  const std::string da = fresh_dir("sb_a"), db = fresh_dir("sb_b");
  CampaignResult a, b;
  {
    baselines::RandomFuzzer gen(11);
    CampaignConfig c = cfg;
    c.dist.num_procs = 1;
    c.num_workers = 1;
    c.checkpoint_dir = da;
    a = run_campaign(gen, c);
  }
  {
    baselines::RandomFuzzer gen(11);
    CampaignConfig c = cfg;
    c.superblocks = false;
    c.dist.num_procs = 2;
    c.num_workers = 2;
    c.checkpoint_dir = db;
    b = run_campaign(gen, c);
  }
  expect_identical(a, b);
  expect_same_persisted_state(da, db);
  fs::remove_all(da);
  fs::remove_all(db);
}

// ---------------------------------------------------------------------------
// Wire protocol robustness: malformed input errors, never crashes.
// ---------------------------------------------------------------------------

struct ChannelPair {
  ChannelPair() {
    int sv[2];
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    a = dist::FrameChannel(sv[0]);
    b = dist::FrameChannel(sv[1]);
  }
  dist::FrameChannel a, b;
};

std::string raw_u32(std::uint32_t v) {
  ser::Writer w;
  w.u32(v);
  return w.take();
}

TEST(DistProtocol, RejectsBadMagic) {
  ChannelPair ch;
  const std::string junk = raw_u32(0xDEADBEEF) + raw_u32(4) + raw_u32(0) +
                           "abcd";
  ASSERT_EQ(::send(ch.b.fd(), junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  std::string payload;
  const ser::Status s = ch.a.recv_frame(&payload, 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.message();
}

TEST(DistProtocol, RejectsOversizedLengthPrefix) {
  ChannelPair ch;
  const std::string junk =
      raw_u32(dist::kFrameMagic) + raw_u32(0xFFFFFFFF) + raw_u32(0);
  ASSERT_EQ(::send(ch.b.fd(), junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  std::string payload;
  const ser::Status s = ch.a.recv_frame(&payload, 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("size limit"), std::string::npos) << s.message();
}

TEST(DistProtocol, RejectsCrcMismatch) {
  ChannelPair ch;
  const std::string body = "hello";
  const std::string junk = raw_u32(dist::kFrameMagic) +
                           raw_u32(static_cast<std::uint32_t>(body.size())) +
                           raw_u32(0x12345678) + body;
  ASSERT_EQ(::send(ch.b.fd(), junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  std::string payload;
  const ser::Status s = ch.a.recv_frame(&payload, 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.message();
}

TEST(DistProtocol, RejectsTruncatedFrame) {
  ChannelPair ch;
  // Header promises 100 payload bytes; the peer dies after 3.
  const std::string junk = raw_u32(dist::kFrameMagic) + raw_u32(100) +
                           raw_u32(0) + "abc";
  ASSERT_EQ(::send(ch.b.fd(), junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  ch.b.close();
  std::string payload;
  const ser::Status s = ch.a.recv_frame(&payload, 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("closed"), std::string::npos) << s.message();
}

TEST(DistProtocol, RecvTimesOutOnSilence) {
  ChannelPair ch;
  std::string payload;
  const ser::Status s = ch.a.recv_frame(&payload, 50);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("timed out"), std::string::npos) << s.message();
}

TEST(DistProtocol, FrameRoundTripSurvivesLargePayloads) {
  ChannelPair ch;
  std::string big(1 << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 31);
  }
  // A megabyte exceeds the socketpair buffer: the sender must run on its
  // own thread (exactly like a real worker peer) for the partial-write /
  // partial-read resume paths to be exercised.
  std::thread sender([&] { EXPECT_TRUE(ch.a.send_frame(big).ok()); });
  std::string payload;
  const ser::Status s = ch.b.recv_frame(&payload, 5000);
  sender.join();
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(payload, big);
}

TEST(DistProtocol, MessageRoundTrips) {
  dist::LeaseMsg lease;
  lease.lease_id = 42;
  lease.base_index = 1234;
  lease.tests = {{0x00500513u, 0x00b60633u}, {}, {0xdeadbeefu}};
  dist::LeaseMsg lease2;
  ASSERT_TRUE(dist::decode_lease(dist::encode_lease(lease), &lease2).ok());
  EXPECT_EQ(lease2.lease_id, 42u);
  EXPECT_EQ(lease2.base_index, 1234u);
  EXPECT_EQ(lease2.tests, lease.tests);

  dist::ConfigMsg cfg;
  cfg.cfg = small_campaign();
  cfg.cfg.seed = 77;
  cfg.cfg.core = rtl::CoreConfig::boom();
  cfg.cfg.guidance = GuidanceMetric::kFsm;
  cfg.use_suite = true;
  cfg.worker_index = 3;
  cfg.max_lease_tests = 4;
  cfg.superblocks = false;
  dist::ConfigMsg cfg2;
  ASSERT_TRUE(dist::decode_config(dist::encode_config(cfg), &cfg2).ok());
  EXPECT_EQ(cfg2.cfg.seed, 77u);
  EXPECT_EQ(cfg2.cfg.core.name, "boom");
  EXPECT_TRUE(cfg2.cfg.core.superscalar);
  EXPECT_EQ(cfg2.cfg.guidance, GuidanceMetric::kFsm);
  EXPECT_TRUE(cfg2.use_suite);
  EXPECT_EQ(cfg2.worker_index, 3u);
  EXPECT_EQ(cfg2.max_lease_tests, 4u);
  EXPECT_FALSE(cfg2.superblocks);

  dist::HelloMsg hello;
  hello.pid = 999;
  dist::HelloMsg hello2;
  ASSERT_TRUE(dist::decode_hello(dist::encode_hello(hello), &hello2).ok());
  EXPECT_EQ(hello2.protocol, dist::kProtocolVersion);
  EXPECT_EQ(hello2.pid, 999u);
}

TEST(DistProtocol, ArtifactRoundTripIncludesMismatchRecords) {
  TestArtifact art;
  art.cond_bins = {{3, 7}, {900, 1}};
  art.ctrl_states = {0x1111, 0x2222};
  art.toggle_bins = {1, 5, 9};
  art.fsm_bins = {2};
  art.stmt_bins = {};
  art.cycles = 4242;
  art.steps = 99;
  art.report.raw_count = 5;
  art.report.filtered_count = 1;
  mismatch::Mismatch m;
  m.kind = mismatch::Kind::kRdValue;
  m.index = 17;
  m.dut.pc = 0x80000010;
  m.dut.instr = 0x00500513;
  m.dut.has_rd_write = true;
  m.dut.rd = 10;
  m.dut.rd_value = 5;
  m.golden = m.dut;
  m.golden.rd_value = 6;
  m.signature = "rd-value addi";
  m.finding = mismatch::Finding::kOther;
  // Two identical consecutive records (one wire run) plus a distinct one:
  // the signature-summary encoding must preserve the multiset and order.
  art.report.mismatches.push_back(m);
  art.report.mismatches.push_back(m);
  mismatch::Mismatch m2 = m;
  m2.kind = mismatch::Kind::kLength;
  m2.signature = "length golden-short";
  m2.finding = mismatch::Finding::kBug2TracerMulDiv;
  art.report.mismatches.push_back(m2);

  ser::Writer w;
  dist::write_artifact(w, art);
  const std::string bytes = w.buffer();
  ser::Reader r(bytes);
  TestArtifact back;
  ASSERT_TRUE(dist::read_artifact(r, back));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.cond_bins.size(), 2u);
  EXPECT_EQ(back.cond_bins[1].bin, 900u);
  EXPECT_EQ(back.ctrl_states, art.ctrl_states);
  EXPECT_EQ(back.toggle_bins, art.toggle_bins);
  EXPECT_EQ(back.fsm_bins, art.fsm_bins);
  EXPECT_EQ(back.cycles, 4242u);
  EXPECT_EQ(back.steps, 99u);
  // Mismatches travel as signature summaries: kind/finding/signature and
  // the per-run counts survive (everything campaign accumulation reads);
  // the commit-record details deliberately do not ride the wire.
  EXPECT_EQ(back.report.raw_count, 5u);
  EXPECT_EQ(back.report.filtered_count, 1u);
  ASSERT_EQ(back.report.mismatches.size(), 3u);
  EXPECT_EQ(back.report.mismatches[0].kind, mismatch::Kind::kRdValue);
  EXPECT_EQ(back.report.mismatches[0].signature, "rd-value addi");
  EXPECT_EQ(back.report.mismatches[1].signature, "rd-value addi");
  EXPECT_EQ(back.report.mismatches[2].kind, mismatch::Kind::kLength);
  EXPECT_EQ(back.report.mismatches[2].signature, "length golden-short");
  EXPECT_EQ(back.report.mismatches[2].finding,
            mismatch::Finding::kBug2TracerMulDiv);

  // Corrupt the encoded enum field: decoding must fail, not fabricate.
  std::string evil = bytes;
  // The kind byte is the first byte after the two u64 counters + count.
  // Rather than compute the offset, flip every byte position and require
  // that no mutation crashes; most must fail or decode to something.
  for (std::size_t i = 0; i < evil.size(); i += 7) {
    std::string mutated = evil;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    ser::Reader mr(mutated);
    TestArtifact scratch;
    (void)dist::read_artifact(mr, scratch);  // must not crash/UB
  }
}

TEST(DistProtocol, DecodersRejectGarbageAndWrongTypes) {
  dist::LeaseMsg lease;
  EXPECT_FALSE(dist::decode_lease("garbage-bytes", &lease).ok());
  EXPECT_FALSE(dist::decode_lease("", &lease).ok());
  dist::LeaseResultMsg res;
  EXPECT_FALSE(dist::decode_lease_result("\x04more-garbage", &res).ok());
  dist::ConfigMsg cfg;
  // A hello frame is not a config frame.
  EXPECT_FALSE(
      dist::decode_config(dist::encode_hello(dist::HelloMsg{}), &cfg).ok());
  dist::HelloMsg hello;
  EXPECT_FALSE(
      dist::decode_hello(dist::encode_shutdown(), &hello).ok());
  // Absurd length prefix inside a lease payload: count says 2^60 tests.
  ser::Writer w;
  w.u8(3);  // kLease
  w.u64(1);
  w.u64(0);
  w.u64(std::uint64_t{1} << 60);
  EXPECT_FALSE(dist::decode_lease(w.buffer(), &lease).ok());
  EXPECT_EQ(dist::peek_type(""), dist::MsgType::kInvalid);
  EXPECT_EQ(dist::peek_type("\x63"), dist::MsgType::kInvalid);
  EXPECT_EQ(dist::peek_type(dist::encode_shutdown()),
            dist::MsgType::kShutdown);
  // The type range is contiguous: the last type passes, one past it and
  // 0xFF do not.
  const auto last = static_cast<char>(dist::MsgType::kStatsReply);
  EXPECT_EQ(dist::peek_type(std::string(1, last)), dist::MsgType::kStatsReply);
  EXPECT_EQ(dist::peek_type(std::string(1, static_cast<char>(last + 1))),
            dist::MsgType::kInvalid);
  EXPECT_EQ(dist::peek_type("\xFF"), dist::MsgType::kInvalid);
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
