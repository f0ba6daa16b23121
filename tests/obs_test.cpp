// Telemetry subsystem (src/obs/) contract tests. The load-bearing property
// is the out-of-band guarantee: tracing and stats export observe a campaign
// without perturbing it — every campaign artifact (result, coverage DB,
// mismatch DB, generator stream, corpus bytes) is byte-identical with
// telemetry on or off, for any workers x procs topology and across a
// checkpoint/resume cut. Plus the mechanisms themselves: ring overflow
// drops-and-counts instead of blocking, the obs::Clock seam makes output
// deterministic, exported files are well-formed, and a live coordinator
// answers `fleet status` queries (with auth) while a campaign runs.
//
// Like the dist determinism suite this binary is its own worker fleet:
// main() routes the `worker --connect` argv into dist::maybe_worker_main
// before gtest runs (campaigns with --procs re-exec /proc/self/exe).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mutational.h"
#include "campaign_equality.h"
#include "core/campaign.h"
#include "core/checkpoint.h"
#include "corpus/stats.h"
#include "corpus/store.h"
#include "dist/fleet.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chatfuzz::core {
namespace {

namespace fs = std::filesystem;

// Same shape as the dist determinism harness: 3 batches of 32 with a
// checkpoint interval that does not divide the batch size.
CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.num_tests = 96;
  cfg.batch_size = 32;
  cfg.checkpoint_every = 10;
  cfg.platform.max_steps = 256;
  cfg.dist.lease_tests = 4;
  return cfg;
}

std::string fresh_dir(const char* tag) {
  static int counter = 0;
  std::string dir = std::string("obs_test_") + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++);
  fs::remove_all(dir);
  return dir;
}

CampaignResult run_plain(const CampaignConfig& base, std::size_t procs,
                         std::size_t workers, const std::string& dir) {
  baselines::RandomFuzzer gen(11);
  CampaignConfig cfg = base;
  cfg.dist.num_procs = procs;
  cfg.num_workers = workers;
  cfg.checkpoint_dir = dir;
  return run_campaign(gen, cfg);
}

CampaignResult run_traced(const CampaignConfig& base, std::size_t procs,
                          std::size_t workers, const std::string& dir,
                          const std::string& trace,
                          const std::string& stats) {
  baselines::RandomFuzzer gen(11);
  CampaignConfig cfg = base;
  cfg.dist.num_procs = procs;
  cfg.num_workers = workers;
  cfg.checkpoint_dir = dir;
  cfg.trace_path = trace;
  cfg.stats_path = stats;
  cfg.stats_every_ms = 0;  // every batch boundary
  return run_campaign(gen, cfg);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

// ---------------------------------------------------------------------------
// Trace ring mechanics.
// ---------------------------------------------------------------------------

TEST(ObsTrace, RingOverflowDropsNewestAndCounts) {
  // Ring capacity applies to buffers created after trace_start, so record on
  // a fresh thread (the main thread's ring may predate this test with a
  // larger capacity).
  obs::trace_start(/*ring_capacity=*/8);
  std::thread producer([] {
    for (int i = 0; i < 20; ++i) {
      OBS_SPAN("obs_test.overflow");
    }
  });
  producer.join();
  obs::trace_stop();
  EXPECT_EQ(obs::trace_span_count(), 8u);
  EXPECT_EQ(obs::trace_dropped_count(), 12u);

  const std::string path = fresh_dir("overflow") + ".json";
  std::string err;
  ASSERT_TRUE(obs::write_chrome_trace(path, &err)) << err;
  const std::string json = file_bytes(path);
  EXPECT_NE(json.find("\"droppedSpans\":\"12\""), std::string::npos) << json;
  fs::remove(path);
}

TEST(ObsTrace, ManualClockProducesExactTimestamps) {
  obs::ManualClock clock(1'000'000);  // 1000.000 us
  obs::set_clock(&clock);
  obs::trace_start(64);
  {
    OBS_SPAN("obs_test.clocked");
    clock.advance_ns(2'500);  // 2.500 us duration
  }
  obs::trace_stop();
  obs::set_clock(nullptr);

  const std::string path = fresh_dir("clocked") + ".json";
  std::string err;
  ASSERT_TRUE(obs::write_chrome_trace(path, &err)) << err;
  const std::string json = file_bytes(path);
  EXPECT_NE(json.find("\"name\":\"obs_test.clocked\""), std::string::npos);
  // Category = span-name prefix before the first dot (Perfetto layer group).
  EXPECT_NE(json.find("\"cat\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos) << json;
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Metrics registry + NDJSON writer.
// ---------------------------------------------------------------------------

TEST(ObsMetrics, SnapshotExpandsHistogramsAndSortsNames) {
  obs::registry().reset();
  obs::counter("obs_test.a")->add(7);
  obs::gauge("obs_test.b")->set(2.5);
  obs::registry().histogram("obs_test.h", 0.0, 10.0, 4)->add(5.0);
  const std::string json = obs::registry().to_json();
  EXPECT_NE(json.find("\"obs_test.a\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test.b\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test.h.count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test.h.mean\":5"), std::string::npos) << json;
  // Name-sorted: a < b < h.count.
  EXPECT_LT(json.find("obs_test.a"), json.find("obs_test.b"));
  EXPECT_LT(json.find("obs_test.b"), json.find("obs_test.h.count"));
  obs::registry().reset();
  EXPECT_EQ(obs::counter("obs_test.a")->value(), 0u);
}

TEST(ObsMetrics, StatsWriterHonorsIntervalUnderManualClock) {
  obs::ManualClock clock(0);
  obs::set_clock(&clock);
  obs::registry().reset();
  obs::counter("obs_test.events")->add(3);

  const std::string path = fresh_dir("stats") + ".ndjson";
  obs::StatsWriter w;
  std::string err;
  ASSERT_TRUE(w.open(path, /*every_ms=*/100, &err)) << err;
  w.maybe_write({});               // first call always writes
  clock.advance_ns(50'000'000);    // +50ms: inside the interval, suppressed
  w.maybe_write({});
  clock.advance_ns(60'000'000);    // +110ms total: interval elapsed
  w.maybe_write({});
  w.finish({{"final", 1.0}});      // final line is unconditional
  obs::set_clock(nullptr);

  const std::vector<std::string> lines = lines_of(file_bytes(path));
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"t_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"obs_test.events\":3"), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"t_ms\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"final\":1"), std::string::npos);
  obs::registry().reset();
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Campaign-level export: well-formed files with spans from every layer.
// ---------------------------------------------------------------------------

TEST(ObsCampaign, TraceAndStatsExportsAreWellFormed) {
  const CampaignConfig cfg = small_campaign();
  const std::string dir = fresh_dir("export");
  const std::string trace = dir + ".trace.json";
  const std::string stats = dir + ".stats.ndjson";
  run_traced(cfg, /*procs=*/1, /*workers=*/2, dir, trace, stats);

  const std::string json = file_bytes(trace);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"engine."), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sim."), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"droppedSpans\":"), std::string::npos);

  const std::vector<std::string> lines = lines_of(file_bytes(stats));
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"t_ms\":"), std::string::npos);
  }
  EXPECT_NE(lines.back().find("\"campaign.tests\":96"), std::string::npos)
      << lines.back();
  EXPECT_NE(lines.back().find("\"final\":1"), std::string::npos);

  // Distributed topology: the coordinator's own trace carries dist.* spans
  // and its NDJSON carries fleet rollups.
  const std::string dir2 = fresh_dir("export_dist");
  const std::string trace2 = dir2 + ".trace.json";
  const std::string stats2 = dir2 + ".stats.ndjson";
  run_traced(cfg, /*procs=*/2, /*workers=*/1, dir2, trace2, stats2);
  const std::string json2 = file_bytes(trace2);
  EXPECT_NE(json2.find("\"name\":\"dist."), std::string::npos);
  const std::string ndjson2 = file_bytes(stats2);
  EXPECT_NE(ndjson2.find("\"fleet.workers_live\":"), std::string::npos);
  EXPECT_NE(ndjson2.find("\"fleet.worker."), std::string::npos)
      << "worker registry snapshots never crossed the wire";

  fs::remove_all(dir);
  fs::remove_all(dir2);
  fs::remove(trace);
  fs::remove(stats);
  fs::remove(trace2);
  fs::remove(stats2);
}

// ---------------------------------------------------------------------------
// The out-of-band contract: telemetry on vs off is byte-identical.
// ---------------------------------------------------------------------------

TEST(ObsCampaign, TelemetryIsByteIdenticalAcrossTopologies) {
  const CampaignConfig cfg = small_campaign();
  const std::string base_dir = fresh_dir("ident_base");
  const CampaignResult base = run_plain(cfg, 1, 1, base_dir);

  const struct { std::size_t procs, workers; } grid[] = {
      {1, 4}, {2, 1}, {2, 4}};
  for (const auto& g : grid) {
    SCOPED_TRACE("procs=" + std::to_string(g.procs) +
                 " workers=" + std::to_string(g.workers));
    const std::string dir = fresh_dir("ident");
    const std::string trace = dir + ".trace.json";
    const std::string stats = dir + ".stats.ndjson";
    const CampaignResult r =
        run_traced(cfg, g.procs, g.workers, dir, trace, stats);
    expect_identical(base, r);
    expect_same_persisted_state(base_dir, dir);
    EXPECT_FALSE(file_bytes(trace).empty());
    EXPECT_FALSE(file_bytes(stats).empty());
    fs::remove_all(dir);
    fs::remove(trace);
    fs::remove(stats);
  }
  fs::remove_all(base_dir);
}

TEST(ObsCampaign, TelemetryIsByteIdenticalAcrossResumeCut) {
  // Telemetry on both segments of a paused+resumed campaign (with a
  // topology switch at the cut) must still reproduce an uninterrupted,
  // untraced run bit-for-bit.
  const CampaignConfig cfg = small_campaign();
  const std::string da = fresh_dir("resume_a"), db = fresh_dir("resume_b");
  const CampaignResult uninterrupted = run_plain(cfg, 1, 1, da);

  {
    baselines::RandomFuzzer gen(11);
    CampaignConfig first = cfg;
    first.dist.num_procs = 1;
    first.num_workers = 2;
    first.checkpoint_dir = db;
    first.stop_after_tests = 40;
    first.trace_path = db + ".seg1.trace.json";
    first.stats_path = db + ".seg1.stats.ndjson";
    first.stats_every_ms = 0;
    const CampaignResult partial = run_campaign(gen, first);
    EXPECT_FALSE(partial.completed);
    EXPECT_LT(partial.tests_run, cfg.num_tests);
  }
  baselines::RandomFuzzer gen2(11);  // shell; state restores from disk
  ResumeOptions opts;
  opts.num_workers = 4;
  opts.dist.num_procs = 2;
  opts.dist.lease_tests = cfg.dist.lease_tests;
  opts.trace_path = db + ".seg2.trace.json";
  opts.stats_path = db + ".seg2.stats.ndjson";
  opts.stats_every_ms = 0;
  const CampaignResult resumed = resume_campaign(gen2, db, opts);
  EXPECT_TRUE(resumed.completed);
  expect_identical(uninterrupted, resumed);
  expect_same_persisted_state(da, db);
  EXPECT_FALSE(file_bytes(db + ".seg2.trace.json").empty());
  fs::remove_all(da);
  fs::remove_all(db);
  for (const char* suffix :
       {".seg1.trace.json", ".seg1.stats.ndjson", ".seg2.trace.json",
        ".seg2.stats.ndjson"}) {
    fs::remove(db + suffix);
  }
}

// ---------------------------------------------------------------------------
// Fleet introspection against a live coordinator.
// ---------------------------------------------------------------------------

std::string wait_for_port(const std::string& path) {
  for (int i = 0; i < 300; ++i) {
    std::ifstream in(path);
    std::string hp;
    if (in && std::getline(in, hp) && !hp.empty()) return hp;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return "";
}

TEST(ObsFleet, StatusQueryAgainstLiveCoordinator) {
  clear_drain();
  CampaignConfig cfg = small_campaign();
  cfg.num_tests = 50'000;  // long enough to outlive the queries; drained below
  cfg.dist.num_procs = 2;
  cfg.dist.listen = "127.0.0.1:0";
  cfg.dist.token = "obs-test-token";
  const std::string port_file = fresh_dir("port") + ".portfile";
  cfg.dist.port_file = port_file;

  baselines::RandomFuzzer gen(11);
  CampaignResult result;
  std::thread campaign([&] { result = run_campaign(gen, cfg); });
  const std::string hp = wait_for_port(port_file);
  ASSERT_FALSE(hp.empty()) << "coordinator never wrote its port file";

  // A status peer with the right token gets one reply and a close.
  dist::StatsReplyMsg reply;
  std::string err;
  ASSERT_TRUE(dist::fleet_status_query(hp, "obs-test-token", &reply, &err))
      << err;
  EXPECT_FALSE(reply.peers.empty());
  EXPECT_FALSE(reply.metrics.empty());
  bool any_live = false;
  for (const dist::PeerStatusEntry& p : reply.peers) any_live |= p.alive;
  EXPECT_TRUE(any_live);
  const std::string text = dist::render_fleet_status(reply);
  EXPECT_NE(text.find("fleet:"), std::string::npos);
  EXPECT_NE(text.find("live"), std::string::npos);

  // The wrong token is rejected before any state flows.
  dist::StatsReplyMsg reply2;
  std::string err2;
  EXPECT_FALSE(dist::fleet_status_query(hp, "wrong-token", &reply2, &err2));
  EXPECT_NE(err2.find("rejected"), std::string::npos) << err2;

  request_drain();  // stop at the next batch boundary, like SIGTERM
  campaign.join();
  clear_drain();
  EXPECT_FALSE(result.completed);
  fs::remove(port_file);
}

// ---------------------------------------------------------------------------
// corpus stats --json round-trip.
// ---------------------------------------------------------------------------

TEST(CorpusStatsJson, RoundTripsThroughParseExactly) {
  const std::string dir = fresh_dir("corpus");
  corpus::CorpusStore store;
  ASSERT_TRUE(store.open(dir, /*shard_capacity=*/2).ok());

  corpus::StoreEntryMeta m0;
  m0.test_index = 0;
  m0.new_bins = {1, 2, 3};
  m0.ctrl_new = 2;
  m0.mismatches = 1;
  ASSERT_TRUE(store.append({0x00500513u, 0x00b60633u}, m0).ok());
  corpus::StoreEntryMeta m1;
  m1.test_index = 7;
  ASSERT_TRUE(store.append({0x00000013u}, m1).ok());
  corpus::StoreEntryMeta m2;
  m2.test_index = 9;
  ASSERT_TRUE(store.append({0xdeadbeefu}, m2).ok());
  ASSERT_TRUE(store.flush().ok());

  corpus::StoreStats s;
  ASSERT_TRUE(corpus::collect_store_stats(store, &s).ok());
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.shards, 2u);  // capacity 2 forces a second shard
  EXPECT_EQ(s.program_words, 4u);
  EXPECT_EQ(s.attributed_bins, 3u);
  EXPECT_EQ(s.ctrl_new, 2u);
  EXPECT_EQ(s.with_mismatch, 1u);
  EXPECT_GT(s.disk_bytes, 0u);

  corpus::StoreStats parsed;
  ASSERT_TRUE(corpus::parse_store_stats_json(store_stats_to_json(s), &parsed));
  EXPECT_EQ(parsed, s);

  // String escaping survives the trip too.
  corpus::StoreStats weird = s;
  weird.dir = "odd \"dir\"\\with\nnewline\tand\x01ctrl";
  ASSERT_TRUE(
      corpus::parse_store_stats_json(store_stats_to_json(weird), &parsed));
  EXPECT_EQ(parsed, weird);

  // Malformed input fails instead of fabricating.
  EXPECT_FALSE(corpus::parse_store_stats_json("{}", &parsed));
  EXPECT_FALSE(corpus::parse_store_stats_json("", &parsed));
  std::string truncated = store_stats_to_json(s);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(corpus::parse_store_stats_json(truncated, &parsed));

  // The human table renders from the same stats without crashing.
  const std::string table = corpus::render_store_stats(s);
  EXPECT_NE(table.find("entries:"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace chatfuzz::core

int main(int argc, char** argv) {
  // Worker re-exec: campaigns with --procs spawn /proc/self/exe (this
  // binary) as `worker --connect`; route it before gtest runs.
  if (const auto rc = chatfuzz::dist::maybe_worker_main(argc, argv)) {
    return *rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
