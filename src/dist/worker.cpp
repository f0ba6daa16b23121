#include "dist/worker.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sim_worker.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "obs/metrics.h"
#include "util/log.h"
#include "util/parse.h"
#include "util/rng.h"

namespace chatfuzz::dist {

namespace {

constexpr const char* kUsage =
    "usage: worker --connect host:port [--token t] [--retries n]";

int fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "chatfuzz worker: %s%s%s\n", what,
               detail.empty() ? "" : ": ", detail.c_str());
  return 1;
}

/// Run one lease across the stack pool via the shared span runner
/// (core::run_span: increasing in-lease claim order per stack). Because
/// every stack's ctrl dedup set is reset at the lease boundary first, the
/// artifacts cannot under-report a state some earlier (possibly
/// reassigned-away) lease saw. Returns false on a simulation exception
/// (reported to stderr).
bool run_lease(const core::CampaignConfig& cfg, bool use_suite,
               std::vector<std::unique_ptr<core::SimStack>>& stacks,
               const LeaseMsg& lease,
               std::vector<core::TestArtifact>& artifacts) {
  artifacts.resize(lease.tests.size());
  for (auto& stack : stacks) {
    for (auto& dut : stack->duts) dut->ctrl_cov().reset();
  }
  try {
    core::run_span(stacks, cfg, use_suite, lease.tests.data(),
                   lease.tests.size(), lease.base_index, artifacts.data());
  } catch (const std::exception& e) {
    fail("simulation failed", e.what());
    return false;
  } catch (...) {
    fail("simulation failed", "unknown exception");
    return false;
  }
  return true;
}

/// Beats encode_heartbeat over the shared channel every period until
/// stopped. Sends share one mutex with the main loop's result sends (one
/// thread sends OR the other; concurrent send+recv on a socket is fine).
/// The thread is what keeps a HUNG worker (wedged in simulation — or in
/// the deliberate debug_hang pause) visibly distinct from a DEAD one.
class HeartbeatThread {
 public:
  HeartbeatThread(FrameChannel& chan, std::mutex& send_mu,
                  std::uint32_t period_ms,
                  const std::atomic<std::uint64_t>& served) {
    if (period_ms == 0) return;
    thread_ = std::thread([this, &chan, &send_mu, period_ms, &served] {
      while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
        if (stop_.load(std::memory_order_relaxed)) break;
        HeartbeatMsg hb;
        hb.served = served.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(send_mu);
        if (!chan.valid()) break;
        // Short bound: a heartbeat that cannot leave is a dead link, and
        // the main loop's recv will notice; never block teardown on it.
        if (!chan.send_frame(encode_heartbeat(hb), 1'000).ok()) break;
      }
    });
  }
  ~HeartbeatThread() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

enum class ServeOutcome {
  kShutdown,   // clean end of campaign
  kRejected,   // coordinator refused us — fatal, do not redial
  kTransient,  // connection-level failure — redial
};

/// One full serve session over a connected channel: handshake, then leases
/// until shutdown or failure. `*handshook` reports whether the config
/// arrived (the redial loop resets its failure counter on it).
ServeOutcome serve(FrameChannel& chan, const WorkerOptions& opts,
                   bool* handshook) {
  *handshook = false;

  HelloMsg hello;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.role = static_cast<std::uint8_t>(PeerRole::kWorker);
  hello.token = opts.token;
  ser::Status s = chan.send_frame(encode_hello(hello));
  if (!s.ok()) {
    fail("cannot greet coordinator", s.message());
    return ServeOutcome::kTransient;
  }

  std::string payload;
  s = chan.recv_frame(&payload);
  if (!s.ok()) {
    fail("no config from coordinator", s.message());
    return ServeOutcome::kTransient;
  }
  if (peek_type(payload) == MsgType::kReject) {
    RejectMsg reject;
    if (decode_reject(payload, &reject).ok()) {
      fail("rejected by coordinator", reject.reason);
    } else {
      fail("rejected by coordinator", "");
    }
    return ServeOutcome::kRejected;
  }
  ConfigMsg config;
  s = decode_config(payload, &config);
  if (!s.ok()) {
    fail("bad config", s.message());
    return ServeOutcome::kTransient;
  }
  if (config.protocol != kProtocolVersion) {
    fail("protocol version mismatch",
         "coordinator speaks v" + std::to_string(config.protocol));
    return ServeOutcome::kRejected;
  }
  // Fingerprint the config with OUR serializer, before touching it: if the
  // bytes round-tripped differently than the coordinator wrote them, the
  // two binaries disagree about the config layout and every downstream
  // determinism guarantee is off — refuse the pairing.
  if (config.config_crc != 0 &&
      config_fingerprint(config.cfg) != config.config_crc) {
    fail("config fingerprint mismatch",
         "mixed binaries with drifted serializers");
    return ServeOutcome::kRejected;
  }
  *handshook = true;
  set_log_role("worker " + std::to_string(config.worker_index));

  core::CampaignConfig& cfg = config.cfg;
  // Re-apply the per-run knob write_campaign_config excludes: the dispatch
  // engine.
  cfg.superblocks = config.superblocks;
  const bool use_suite = config.use_suite;

  // Thread pool sizing mirrors the in-process engine: num_workers threads
  // (0 = hardware concurrency), clamped to the widest lease this campaign
  // will ever hand out — wider stacks would be dead weight.
  const std::size_t requested = std::max<std::size_t>(
      1, cfg.num_workers != 0 ? cfg.num_workers
                              : std::thread::hardware_concurrency());
  const std::size_t num_stacks = std::min(
      requested, std::max<std::size_t>(1, config.max_lease_tests));
  std::vector<std::unique_ptr<core::SimStack>> stacks;
  stacks.reserve(num_stacks);
  try {
    for (std::size_t i = 0; i < num_stacks; ++i) {
      stacks.push_back(std::make_unique<core::SimStack>(cfg, use_suite));
    }
  } catch (const std::exception& e) {
    fail("cannot build simulation stacks", e.what());
    return ServeOutcome::kTransient;
  }

  std::mutex send_mu;
  std::atomic<std::uint64_t> served{0};
  HeartbeatThread heartbeat(chan, send_mu, config.heartbeat_ms, served);

  LeaseMsg lease;
  LeaseResultMsg result;
  bool hang_armed = config.debug_hang;
  for (;;) {
    s = chan.recv_frame(&payload);
    // EOF here means the coordinator died or dropped us; the caller
    // redials (or, for a spawned child whose coordinator died, gives up).
    if (!s.ok()) {
      fail("lost coordinator", s.message());
      return ServeOutcome::kTransient;
    }
    switch (peek_type(payload)) {
      case MsgType::kShutdown:
        return ServeOutcome::kShutdown;
      case MsgType::kStatsRequest: {
        // Telemetry: snapshot this process's obs registry (sim.* counters
        // drained from the stacks by run_one) and send it back. Shares the
        // send mutex with results and heartbeats; short bound, best-effort
        // — a failed stats send is the recv path's problem to notice.
        StatsReplyMsg sr;
        sr.metrics = obs::registry().snapshot();
        std::lock_guard<std::mutex> lock(send_mu);
        (void)chan.send_frame(encode_stats_reply(sr), 1'000);
        break;
      }
      case MsgType::kLease: {
        s = decode_lease(payload, &lease);
        if (!s.ok()) {
          fail("bad lease", s.message());
          return ServeOutcome::kTransient;
        }
        if (hang_armed) {
          // Fault injection: simulate a wedged worker. The MAIN thread
          // stalls forever while the heartbeat thread keeps beating —
          // exactly the hung-not-dead signature the coordinator's two
          // timeouts exist to tell apart. Never returns.
          ::pause();
          return ServeOutcome::kTransient;
        }
        result.lease_id = lease.lease_id;
        if (!run_lease(cfg, use_suite, stacks, lease, result.artifacts)) {
          return ServeOutcome::kTransient;
        }
        {
          std::lock_guard<std::mutex> lock(send_mu);
          s = chan.send_frame(encode_lease_result(result));
        }
        if (!s.ok()) {
          fail("cannot return lease result", s.message());
          return ServeOutcome::kTransient;
        }
        served.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      default:
        fail("unexpected frame from coordinator", "");
        return ServeOutcome::kTransient;
    }
  }
}

}  // namespace

int worker_connect_main(const std::string& hostport,
                        const WorkerOptions& opts) {
  const auto hp = parse_hostport(hostport);
  if (!hp) {
    return fail("bad --connect address (want host:port)", hostport);
  }
  // Capped exponential backoff + jitter. The jitter stream is seeded from
  // the pid — reconnect pacing is pure scheduling, campaign determinism
  // never depends on it, and distinct workers must NOT thunder in lockstep.
  Rng jitter(0x9e3779b97f4a7c15ull ^
             static_cast<std::uint64_t>(::getpid()));
  std::uint32_t backoff_ms = 50;
  int failures = 0;
  for (;;) {
    std::string err;
    const int fd = tcp_connect(*hp, 5'000, &err);
    if (fd < 0) {
      fail("cannot reach coordinator", err);
    } else {
      FrameChannel chan(fd);
      bool handshook = false;
      const ServeOutcome outcome = serve(chan, opts, &handshook);
      if (outcome == ServeOutcome::kShutdown) return 0;
      if (outcome == ServeOutcome::kRejected) return 2;
      if (handshook) {
        // The fleet was healthy until just now: treat the next dial as a
        // fresh start.
        failures = 0;
        backoff_ms = 50;
      }
    }
    // Reparented: the coordinator that spawned us is gone, and nobody will
    // ever accept our redial.
    if (opts.coordinator_pid != 0 && ::getppid() != opts.coordinator_pid) {
      return fail("coordinator exited, not redialing", "");
    }
    if (++failures > opts.max_retries) {
      return fail("giving up after repeated connection failures",
                  std::to_string(failures - 1) + " consecutive");
    }
    // Sleep backoff ± 25% jitter, then double up to the cap.
    const std::uint32_t spread = std::max<std::uint32_t>(1, backoff_ms / 2);
    const std::uint32_t wait =
        backoff_ms - backoff_ms / 4 +
        static_cast<std::uint32_t>(jitter.below(spread));
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    backoff_ms = std::min<std::uint32_t>(backoff_ms * 2, 2'000);
  }
}

std::optional<int> maybe_worker_main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "worker") != 0) return std::nullopt;
  WorkerOptions opts;
  if (const char* token = std::getenv(kWorkerTokenEnv)) opts.token = token;
  if (const char* pid = std::getenv(kCoordinatorPidEnv)) {
    opts.coordinator_pid = static_cast<pid_t>(std::atol(pid));
  }
  std::string connect;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg == "--token" && i + 1 < argc) {
      opts.token = argv[++i];
    } else if (arg == "--retries" && i + 1 < argc) {
      const auto retries = parse_count(argv[++i]);
      if (!retries || *retries > INT_MAX) {
        return fail(kUsage, arg + " " + argv[i]);
      }
      opts.max_retries = static_cast<int>(*retries);
    } else {
      return fail(kUsage, arg);
    }
  }
  if (connect.empty()) {
    return fail(kUsage, "missing --connect");
  }
  return worker_connect_main(connect, opts);
}

}  // namespace chatfuzz::dist
