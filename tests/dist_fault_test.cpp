// The dist_fault soak suite: the robustness half of the distributed
// campaign contract. A hostile network — mid-frame disconnects, truncated
// and corrupted frames, byzantine wrong-CRC replies, duplicated and delayed
// deliveries, failed handshakes — may cost retries, reconnects and
// re-issued leases, but it must never move a bit of campaign output:
// results, coverage DB, signature DB, corpus store and checkpoint bytes
// stay identical to a clean single-process run under EVERY seeded fault
// schedule. On top of the wire faults: worker auth rejection, the
// hung-vs-dead health distinction (lease timeout vs heartbeat silence), and
// SIGTERM graceful drain with bit-identical resume.
//
// Like dist_determinism_test, this binary is its own worker fleet: main()
// routes the `worker --connect` argv into dist::maybe_worker_main before
// gtest.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "baselines/mutational.h"
#include "campaign_equality.h"
#include "core/campaign.h"
#include "core/checkpoint.h"
#include "dist/coordinator.h"
#include "dist/fault.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "dist/worker.h"

namespace chatfuzz::core {
namespace {

namespace fs = std::filesystem;

CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.num_tests = 96;
  cfg.batch_size = 32;
  cfg.checkpoint_every = 10;
  cfg.platform.max_steps = 256;
  cfg.dist.lease_tests = 4;
  return cfg;
}

/// The suite's canonical hostile network: every fault kind armed, budget
/// bounded so schedules terminate. Probabilities are per-frame in 1/1024.
FaultPlan hostile_network(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.max_faults = 24;
  plan.p_drop = 40;
  plan.p_truncate = 24;
  plan.p_corrupt = 40;
  plan.p_wrong_crc = 24;
  plan.p_duplicate = 40;
  plan.p_delay = 64;
  plan.p_handshake = 64;
  return plan;
}

std::string fresh_dir(const char* tag) {
  static int counter = 0;
  std::string dir = std::string("dist_fault_test_") + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++);
  fs::remove_all(dir);
  return dir;
}

CampaignResult run_with(CampaignConfig cfg, std::size_t procs,
                        std::size_t workers, const std::string& dir) {
  baselines::RandomFuzzer gen(11);
  cfg.dist.num_procs = procs;
  cfg.num_workers = workers;
  cfg.checkpoint_dir = dir;
  return run_campaign(gen, cfg);
}

// ---------------------------------------------------------------------------
// FaultInjector / FaultyChannel unit tests over a socketpair.
// ---------------------------------------------------------------------------

struct RawPair {
  RawPair() {
    int sv[2];
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    fds[0] = sv[0];
    fds[1] = sv[1];
  }
  std::unique_ptr<dist::Channel> take(int side) {
    return std::make_unique<dist::SocketChannel>(fds[side]);
  }
  int fds[2];
};

/// One-fault plan: `kind` fires on the first roll, then the budget is spent.
FaultPlan one_fault(std::uint32_t FaultPlan::*kind,
                    std::uint32_t budget = 1) {
  FaultPlan plan;
  plan.seed = 7;
  plan.max_faults = budget;
  plan.*kind = 1024;  // certain hit while the budget lasts
  return plan;
}

TEST(FaultInjector, ScheduleIsSeededAndBudgetBounded) {
  const FaultPlan plan = hostile_network(0xC0FFEE);
  dist::FaultInjector a(plan, Rng(1)), b(plan, Rng(1));
  Rng ra = a.channel_rng(3), rb = b.channel_rng(3);
  std::size_t hits = 0;
  for (int i = 0; i < 4096; ++i) {
    const auto ka = a.roll(ra, i == 0);
    const auto kb = b.roll(rb, i == 0);
    ASSERT_EQ(ka.has_value(), kb.has_value()) << "roll " << i;
    if (ka) {
      EXPECT_EQ(*ka, *kb) << "roll " << i;
      ++hits;
    }
  }
  // Same seed, same ordinal, same sequence — and the budget is a hard cap.
  EXPECT_EQ(hits, a.injected());
  EXPECT_LE(hits, plan.max_faults);
  EXPECT_GT(hits, 0u);  // ~28% per-frame odds over 4096 frames

  // A spent injector never fires again.
  const auto tail = a.roll(ra, false);
  EXPECT_EQ(a.injected(), b.injected());
  if (a.injected() == plan.max_faults) {
    EXPECT_FALSE(tail.has_value());
  }
}

TEST(FaultInjector, CorruptedPayloadIsCaughtByCrc) {
  RawPair pair;
  auto inj = std::make_shared<dist::FaultInjector>(
      one_fault(&FaultPlan::p_corrupt), Rng(1));
  auto faulty = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  dist::SocketChannel peer(pair.fds[1]);

  // The sender believes the frame left intact; the receiver's CRC disagrees.
  EXPECT_TRUE(faulty->send_frame("hello fleet", 1000).ok());
  std::string got;
  ser::Status s = peer.recv_frame(&got, 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.message();
  EXPECT_EQ(inj->injected(), 1u);

  // Budget spent: the stream itself survived, the next frame is clean.
  EXPECT_TRUE(faulty->send_frame("clean now", 1000).ok());
  ASSERT_TRUE(peer.recv_frame(&got, 1000).ok());
  EXPECT_EQ(got, "clean now");
}

TEST(FaultInjector, WrongCrcKeepsPayloadIntact) {
  RawPair pair;
  auto inj = std::make_shared<dist::FaultInjector>(
      one_fault(&FaultPlan::p_wrong_crc), Rng(1));
  auto faulty = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  dist::SocketChannel peer(pair.fds[1]);
  EXPECT_TRUE(faulty->send_frame("byzantine", 1000).ok());
  std::string got;
  const ser::Status s = peer.recv_frame(&got, 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.message();
}

TEST(FaultInjector, DropTearsDownMidFrame) {
  RawPair pair;
  auto inj = std::make_shared<dist::FaultInjector>(
      one_fault(&FaultPlan::p_drop), Rng(1));
  auto faulty = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  dist::SocketChannel peer(pair.fds[1]);
  const ser::Status s = faulty->send_frame("never arrives", 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(faulty->valid());
  // The peer sees a partial frame, then EOF: a mid-frame disconnect.
  std::string got;
  EXPECT_FALSE(peer.recv_frame(&got, 1000).ok());
}

TEST(FaultInjector, TruncateDeliversHalfAFrame) {
  RawPair pair;
  auto inj = std::make_shared<dist::FaultInjector>(
      one_fault(&FaultPlan::p_truncate), Rng(1));
  auto faulty = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  dist::SocketChannel peer(pair.fds[1]);
  EXPECT_FALSE(faulty->send_frame("chopped in transit", 1000).ok());
  std::string got;
  const ser::Status s = peer.recv_frame(&got, 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("closed"), std::string::npos) << s.message();
}

TEST(FaultInjector, DuplicateDeliversTheFrameTwice) {
  RawPair pair;
  auto inj = std::make_shared<dist::FaultInjector>(
      one_fault(&FaultPlan::p_duplicate), Rng(1));
  auto faulty = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  dist::SocketChannel peer(pair.fds[1]);
  EXPECT_TRUE(faulty->send_frame("echo", 1000).ok());
  std::string got;
  ASSERT_TRUE(peer.recv_frame(&got, 1000).ok());
  EXPECT_EQ(got, "echo");
  ASSERT_TRUE(peer.recv_frame(&got, 1000).ok());
  EXPECT_EQ(got, "echo");
}

TEST(FaultInjector, DelayedFrameStillArrivesIntact) {
  RawPair pair;
  auto inj = std::make_shared<dist::FaultInjector>(
      one_fault(&FaultPlan::p_delay), Rng(1));
  auto faulty = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  dist::SocketChannel peer(pair.fds[1]);
  EXPECT_TRUE(faulty->send_frame("slow but sure", 1000).ok());
  std::string got;
  ASSERT_TRUE(peer.recv_frame(&got, 1000).ok());
  EXPECT_EQ(got, "slow but sure");
  EXPECT_EQ(inj->injected(), 1u);
}

TEST(FaultInjector, HandshakeFaultKillsOnlyTheFirstFrame) {
  RawPair pair;
  auto inj = std::make_shared<dist::FaultInjector>(
      one_fault(&FaultPlan::p_handshake, /*budget=*/8), Rng(1));
  auto faulty = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  EXPECT_FALSE(faulty->send_frame("hello?", 1000).ok());
  EXPECT_EQ(inj->injected(), 1u);
  // The handshake probability only applies to a channel's first frame: a
  // fresh channel on the same injector fires once, then its later frames
  // run clean even with budget left.
  RawPair pair2;
  auto faulty2 = dist::maybe_wrap_faulty(pair2.take(0), inj, 1);
  dist::SocketChannel peer2(pair2.fds[1]);
  EXPECT_FALSE(faulty2->send_frame("hello again?", 1000).ok());
  EXPECT_EQ(inj->injected(), 2u);
}

TEST(FaultInjector, InboundDuplicateIsStashedAndReplayed) {
  RawPair pair;
  auto inj = std::make_shared<dist::FaultInjector>(
      one_fault(&FaultPlan::p_duplicate), Rng(1));
  auto faulty = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  dist::SocketChannel peer(pair.fds[1]);
  EXPECT_TRUE(peer.send_frame("one wire frame", 1000).ok());
  std::string got;
  ASSERT_TRUE(faulty->recv_frame(&got, 1000).ok());
  EXPECT_EQ(got, "one wire frame");
  // The duplicate never crossed the wire — it replays from the stash.
  ASSERT_TRUE(faulty->recv_frame(&got, 1000).ok());
  EXPECT_EQ(got, "one wire frame");
}

TEST(FaultInjector, PlanDisarmedIsAPassThrough) {
  RawPair pair;
  FaultPlan off;  // seed 0: any() is false regardless of probabilities
  off.p_drop = 1024;
  auto inj = std::make_shared<dist::FaultInjector>(off, Rng(1));
  auto chan = dist::maybe_wrap_faulty(pair.take(0), inj, 0);
  dist::SocketChannel peer(pair.fds[1]);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(chan->send_frame("clean", 1000).ok());
    std::string got;
    ASSERT_TRUE(peer.recv_frame(&got, 1000).ok());
  }
  EXPECT_EQ(inj->injected(), 0u);
}

// ---------------------------------------------------------------------------
// Campaign-level soak: fault schedules never move a bit of output.
// ---------------------------------------------------------------------------

TEST(DistFault, TcpFaultMatrixIsBitIdenticalToCleanRun) {
  // The acceptance matrix: a TCP fleet under the full hostile-network plan,
  // procs x workers, every cell byte-identical to a clean 1-process run.
  const CampaignConfig clean = small_campaign();
  const std::string base_dir = fresh_dir("clean");
  const CampaignResult base = run_with(clean, 1, 1, base_dir);

  const struct { std::size_t procs, workers; } grid[] = {
      {1, 1}, {1, 4}, {2, 1}, {2, 4}, {4, 1}, {4, 4}};
  for (const auto& g : grid) {
    CampaignConfig cfg = small_campaign();
    cfg.dist.listen = "127.0.0.1:0";
    cfg.dist.fault = hostile_network(0xC0FFEE + g.procs * 10 + g.workers);
    cfg.dist.reconnect_wait_ms = 20'000;
    const std::string dir = fresh_dir("cell");
    SCOPED_TRACE("procs=" + std::to_string(g.procs) +
                 " workers=" + std::to_string(g.workers));
    const CampaignResult r = run_with(cfg, g.procs, g.workers, dir);
    expect_identical(base, r);
    expect_same_persisted_state(base_dir, dir);
    fs::remove_all(dir);
  }
  fs::remove_all(base_dir);
}

TEST(DistFault, FaultsActuallyFireAndLeasesReissue) {
  // Coordinator-level cell where the counters are visible: an aggressive
  // schedule must actually inject, cost peers, re-issue leases — and still
  // fill every artifact slot with the exact clean-run values.
  CampaignConfig cfg = small_campaign();
  cfg.dist.listen = "127.0.0.1:0";
  cfg.dist.num_procs = 2;
  cfg.num_workers = 1;
  cfg.dist.fault = hostile_network(0xBADCA8);
  cfg.dist.fault.p_drop = 200;
  cfg.dist.fault.p_corrupt = 200;
  cfg.dist.fault.max_faults = 16;
  baselines::RandomFuzzer gen(11);
  const std::vector<Program> batch = gen.next_batch(32);

  std::vector<TestArtifact> faulted(batch.size());
  dist::Coordinator coord(cfg, /*use_suite=*/false);
  coord.run_batch(batch, 0, faulted);
  EXPECT_GT(coord.faults_injected(), 0u);

  CampaignConfig clean_cfg = small_campaign();
  clean_cfg.dist.num_procs = 2;
  clean_cfg.num_workers = 1;
  std::vector<TestArtifact> clean(batch.size());
  dist::Coordinator ref(clean_cfg, false);
  ref.run_batch(batch, 0, clean);

  ASSERT_EQ(clean.size(), faulted.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    SCOPED_TRACE("test " + std::to_string(i));
    EXPECT_EQ(clean[i].cycles, faulted[i].cycles);
    EXPECT_EQ(clean[i].steps, faulted[i].steps);
    EXPECT_EQ(clean[i].ctrl_states, faulted[i].ctrl_states);
    ASSERT_EQ(clean[i].cond_bins.size(), faulted[i].cond_bins.size());
    for (std::size_t j = 0; j < clean[i].cond_bins.size(); ++j) {
      EXPECT_EQ(clean[i].cond_bins[j].bin, faulted[i].cond_bins[j].bin);
      EXPECT_EQ(clean[i].cond_bins[j].hits, faulted[i].cond_bins[j].hits);
    }
    EXPECT_EQ(clean[i].report.raw_count, faulted[i].report.raw_count);
  }
}

// ---------------------------------------------------------------------------
// Handshake auth, health model, graceful drain.
// ---------------------------------------------------------------------------

/// Read "host:port\n" written by the coordinator's TCP transport.
std::string read_port_file(const std::string& path) {
  std::ifstream in(path);
  std::string hostport;
  in >> hostport;
  return hostport;
}

TEST(DistFault, WorkerWithBadTokenIsRejectedAndStopsRedialing) {
  CampaignConfig cfg = small_campaign();
  cfg.dist.listen = "127.0.0.1:0";
  cfg.dist.token = "fleet-secret";
  cfg.dist.num_procs = 1;
  cfg.num_workers = 1;
  cfg.dist.port_file = fresh_dir("port") + ".txt";
  dist::Coordinator coord(cfg, false);
  const std::string hostport = read_port_file(cfg.dist.port_file);
  ASSERT_FALSE(hostport.empty());

  // An impostor dials in while the batch runs. kReject must make it exit 2
  // (fatal, stop redialing) instead of burning its transient-retry budget.
  const pid_t impostor = ::fork();
  ASSERT_GE(impostor, 0);
  if (impostor == 0) {
    dist::WorkerOptions opts;
    opts.token = "wrong-secret";
    opts.max_retries = 100;  // irrelevant: rejection must not retry
    std::_Exit(dist::worker_connect_main(hostport, opts));
  }

  baselines::RandomFuzzer gen(11);
  const std::vector<Program> batch = gen.next_batch(64);
  std::vector<TestArtifact> arts(batch.size());
  coord.run_batch(batch, 0, arts);

  int status = 0;
  ASSERT_EQ(::waitpid(impostor, &status, 0), impostor);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_GE(coord.stats().peers_rejected, 1u);
  EXPECT_EQ(coord.stats().workers_lost, 0u);
  for (std::size_t i = 0; i < arts.size(); ++i) {
    EXPECT_GT(arts[i].steps, 0u) << "artifact slot " << i << " never filled";
  }
  fs::remove(cfg.dist.port_file);
}

TEST(DistFault, WorkerRejectsAMalformedRetryCountBeforeDialing) {
  // `worker --retries` takes a count: anything else prints the usage line
  // and exits 1 without a connection attempt.
  const auto worker = [](const char* retries, std::string* err) {
    const char* argv[] = {"chatfuzz",    "worker",    "--connect",
                          "127.0.0.1:9", "--retries", retries};
    ::testing::internal::CaptureStderr();
    const auto rc = dist::maybe_worker_main(6, const_cast<char**>(argv));
    *err = ::testing::internal::GetCapturedStderr();
    return rc.value_or(-1);
  };
  std::string err;
  for (const char* bad : {"abc", "-3", "2x", "", " 1", "99999999999"}) {
    EXPECT_EQ(worker(bad, &err), 1) << "--retries '" << bad << "'";
    EXPECT_NE(err.find("usage: worker"), std::string::npos) << err;
    EXPECT_EQ(err.find("cannot reach"), std::string::npos) << err;
  }
  // A well-formed count still bounds the redials: 0 means dial once.
  EXPECT_EQ(worker("0", &err), 1);
  EXPECT_NE(err.find("cannot reach coordinator"), std::string::npos) << err;
  EXPECT_NE(err.find("0 consecutive"), std::string::npos) << err;
}

/// Run small_campaign() on a 2-process fleet whose token is `token` (empty:
/// the coordinator mints one that only its spawned children receive), dial
/// in once mid-campaign with `hello`, and put the reason of the coordinator's
/// kReject in `*reason`. The fleet must count the rejection and its output
/// must stay byte-identical to a single-process run.
void dial_in_mid_campaign(const char* tag, const std::string& token,
                          const dist::HelloMsg& hello, std::string* reason) {
  const std::string da = fresh_dir((std::string(tag) + "_clean").c_str());
  const std::string db = fresh_dir((std::string(tag) + "_fleet").c_str());
  const CampaignResult base = run_with(small_campaign(), 1, 1, da);

  CampaignConfig cfg = small_campaign();
  cfg.dist.num_procs = 2;
  cfg.dist.token = token;
  cfg.num_workers = 1;
  cfg.dist.port_file = db + ".port";
  cfg.stats_path = db + ".ndjson";
  cfg.checkpoint_dir = db;
  std::unique_ptr<dist::SocketChannel> foreign;
  baselines::RandomFuzzer gen(11);
  const CampaignResult r =
      run_campaign(gen, cfg, [&](const CampaignPoint&) {
        if (foreign) return;
        // First curve point: the fleet is up and later batches remain. Dial
        // in and say hello; the coordinator answers when its poll loop next
        // accepts.
        const auto hp =
            dist::parse_hostport(read_port_file(cfg.dist.port_file));
        ASSERT_TRUE(hp.has_value());
        std::string err;
        const int fd = dist::tcp_connect(*hp, 5'000, &err);
        ASSERT_GE(fd, 0) << err;
        foreign = std::make_unique<dist::SocketChannel>(fd);
        ASSERT_TRUE(
            foreign->send_frame(dist::encode_hello(hello), 5'000).ok());
      });

  ASSERT_TRUE(foreign);
  std::string payload;
  ASSERT_TRUE(foreign->recv_frame(&payload, 5'000).ok());
  dist::RejectMsg reject;
  ASSERT_TRUE(dist::decode_reject(payload, &reject).ok());
  *reason = reject.reason;
  const std::string ndjson = file_bytes(cfg.stats_path);
  const std::string key = "\"fleet.peers_rejected\":";
  const std::size_t at = ndjson.rfind(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GE(std::strtod(ndjson.c_str() + at + key.size(), nullptr), 1.0);
  expect_identical(base, r);
  expect_same_persisted_state(da, db);
  fs::remove_all(da);
  fs::remove_all(db);
  fs::remove(cfg.dist.port_file);
  fs::remove(cfg.stats_path);
}

TEST(DistFault, DefaultFleetRejectsForeignDialIn) {
  // A default fleet (no listen, no token) still listens on loopback, so it
  // must not trust whoever dials in: the coordinator mints a per-campaign
  // token that only its spawned children receive. A foreign local process
  // that dials in mid-campaign with an empty token is rejected.
  dist::HelloMsg hello;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  std::string reason;
  dial_in_mid_campaign("priv", "", hello, &reason);
  EXPECT_EQ(reason, "bad auth token");
}

TEST(DistFault, FleetRejectsAPeerRoleItDoesNotServe) {
  // The right token does not make any peer a worker: a hello with role 1
  // (retired in protocol v6) is refused by role.
  dist::HelloMsg hello;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.token = "fleet-secret";
  hello.role = 1;
  std::string reason;
  dial_in_mid_campaign("role", "fleet-secret", hello, &reason);
  EXPECT_EQ(reason, "peer role 1 is neither 'worker' nor 'status'");
}

TEST(DistFault, HungWorkerIsNoProgressNotNoHeartbeat) {
  // debug_hang wedges the worker's lease loop but its heartbeat thread
  // keeps beating: the health model must classify it as HUNG (lease
  // timeout), never as a dead host (heartbeat silence).
  CampaignConfig cfg = small_campaign();
  cfg.dist.num_procs = 2;
  cfg.num_workers = 1;
  cfg.dist.debug_hang_worker = 0;
  cfg.dist.lease_timeout_ms = 1500;
  cfg.dist.heartbeat_ms = 100;
  baselines::RandomFuzzer gen(11);
  const std::vector<Program> batch = gen.next_batch(32);
  std::vector<TestArtifact> arts(batch.size());
  dist::Coordinator coord(cfg, false);
  coord.run_batch(batch, 0, arts);
  EXPECT_EQ(coord.stats().lost_no_progress, 1u);
  EXPECT_EQ(coord.stats().lost_no_heartbeat, 0u);
  EXPECT_GT(coord.stats().heartbeats_seen, 0u);
  EXPECT_GE(coord.stats().leases_reissued, 1u);
}

TEST(DistFault, SilentPeerIsNoHeartbeatNotNoProgress) {
  // The dead-host half: a peer that handshakes and then goes silent (no
  // heartbeats, socket open). Lease timeout is OFF, so only heartbeat
  // silence can catch it.
  CampaignConfig cfg = small_campaign();
  cfg.dist.listen = "127.0.0.1:0";
  cfg.dist.num_procs = 1;
  cfg.num_workers = 1;
  cfg.dist.lease_timeout_ms = 0;
  cfg.dist.heartbeat_ms = 100;
  cfg.dist.heartbeat_timeout_ms = 600;
  cfg.dist.port_file = fresh_dir("port") + ".txt";
  dist::Coordinator coord(cfg, false);
  const std::string hostport = read_port_file(cfg.dist.port_file);
  ASSERT_FALSE(hostport.empty());

  const pid_t silent = ::fork();
  ASSERT_GE(silent, 0);
  if (silent == 0) {
    // A worker that dials, says a valid hello, then freezes solid — the
    // TCP connection stays up, nothing ever flows again.
    const auto hp = dist::parse_hostport(hostport);
    std::string err;
    const int fd = dist::tcp_connect(*hp, 5'000, &err);
    if (fd < 0) std::_Exit(3);
    dist::SocketChannel chan(fd);
    dist::HelloMsg hello;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    if (!chan.send_frame(dist::encode_hello(hello), 5'000).ok()) {
      std::_Exit(3);
    }
    for (;;) ::pause();
  }

  baselines::RandomFuzzer gen(11);
  const std::vector<Program> batch = gen.next_batch(64);
  std::vector<TestArtifact> arts(batch.size());
  coord.run_batch(batch, 0, arts);

  EXPECT_GE(coord.stats().lost_no_heartbeat, 1u);
  EXPECT_EQ(coord.stats().lost_no_progress, 0u);
  for (std::size_t i = 0; i < arts.size(); ++i) {
    EXPECT_GT(arts[i].steps, 0u) << "artifact slot " << i << " never filled";
  }
  ::kill(silent, SIGKILL);
  int status = 0;
  ::waitpid(silent, &status, 0);
  fs::remove(cfg.dist.port_file);
}

/// Every child pid of this process, per /proc (empty when fully reaped).
std::string live_children() {
  std::string out;
  const std::string base =
      "/proc/self/task/" + std::to_string(::getpid()) + "/children";
  std::ifstream in(base);
  std::getline(in, out);
  while (!out.empty() && (out.back() == ' ' || out.back() == '\n')) {
    out.pop_back();
  }
  return out;
}

TEST(DistFault, SigtermDrainsAtLeaseBoundaryAndResumesBitIdentically) {
  // S3: the graceful-drain contract end to end, through the real signal
  // path. SIGTERM mid-campaign -> finish the batch, checkpoint, exit as
  // paused with no orphaned workers; resume (different topology) stitches
  // a byte-identical campaign.
  const CampaignConfig cfg = small_campaign();
  const std::string da = fresh_dir("drain_a"), db = fresh_dir("drain_b");
  const CampaignResult uninterrupted = run_with(cfg, 1, 1, da);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = [](int) { request_drain(); };
  struct sigaction old_sa;
  ASSERT_EQ(0, ::sigaction(SIGTERM, &sa, &old_sa));
  clear_drain();

  {
    baselines::RandomFuzzer gen(11);
    CampaignConfig first = cfg;
    first.dist.num_procs = 2;
    first.num_workers = 1;
    first.dist.listen = "127.0.0.1:0";
    first.checkpoint_dir = db;
    bool raised = false;
    const CampaignResult partial =
        run_campaign(gen, first, [&](const CampaignPoint&) {
          if (!raised) {
            raised = true;
            ::raise(SIGTERM);
          }
        });
    EXPECT_TRUE(raised);
    EXPECT_FALSE(partial.completed);
    EXPECT_LT(partial.tests_run, cfg.num_tests);
    EXPECT_GT(partial.tests_run, 0u);
    // Batch boundaries are lease boundaries: the pause point is a whole
    // number of batches, so the checkpoint cut is lease-aligned.
    EXPECT_EQ(partial.tests_run % cfg.batch_size, 0u);
  }
  ASSERT_EQ(0, ::sigaction(SIGTERM, &old_sa, nullptr));
  // The flag is sticky by design (a drain is a process-level decision, and
  // the CLI process exits right after); the resume below must clear it.
  EXPECT_TRUE(drain_requested());
  clear_drain();
  EXPECT_EQ(live_children(), "") << "drained fleet left orphaned workers";
  ASSERT_TRUE(fs::exists(fs::path(db) / "campaign.ckpt"));

  baselines::RandomFuzzer gen2(11);  // shell; state restores from disk
  ResumeOptions opts;
  opts.num_workers = 2;
  opts.dist.num_procs = 2;
  opts.dist.lease_tests = cfg.dist.lease_tests;
  const CampaignResult resumed = resume_campaign(gen2, db, opts);
  EXPECT_TRUE(resumed.completed);
  expect_identical(uninterrupted, resumed);
  expect_same_persisted_state(da, db);
  fs::remove_all(da);
  fs::remove_all(db);
}

TEST(DistFault, DrainRequestedBetweenCampaignsStopsAfterFirstBatch) {
  // The flag is process-wide and NOT cleared on entry: a drain requested
  // before the campaign starts pauses it at the first batch boundary.
  request_drain();
  CampaignConfig cfg = small_campaign();
  const std::string dir = fresh_dir("predrain");
  baselines::RandomFuzzer gen(11);
  cfg.dist.num_procs = 2;
  cfg.num_workers = 1;
  cfg.dist.listen = "127.0.0.1:0";
  cfg.checkpoint_dir = dir;
  const CampaignResult r = run_campaign(gen, cfg);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.tests_run, cfg.batch_size);
  clear_drain();  // sticky by design; reset for whatever test runs next
  EXPECT_EQ(live_children(), "");
  fs::remove_all(dir);
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
