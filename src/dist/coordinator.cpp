#include "dist/coordinator.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/rng.h"

namespace chatfuzz::dist {

namespace {

/// Handshake window for the initial fleet: covers exec + library init of a
/// fresh worker. Lease traffic uses cfg.dist.lease_timeout_ms instead.
constexpr int kHandshakeTimeoutMs = 60'000;
/// Handshake window for peers that join mid-campaign: they are already
/// running processes, so a peer that connects and then says nothing for
/// this long is a port-scanner, not a worker.
constexpr int kLateHandshakeTimeoutMs = 10'000;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The campaign config with its handshake token settled. A default fleet
/// (neither --listen nor --token) gets a fresh per-campaign secret, so its
/// loopback listener trusts only the children it spawned. The secret comes
/// from std::random_device, never the campaign RNG: campaign bytes must not
/// depend on it, and nobody may derive it from the seed.
core::CampaignConfig with_fleet_token(core::CampaignConfig cfg) {
  if (cfg.dist.token.empty() && cfg.dist.listen.empty()) {
    std::random_device rd;
    char hex[33];
    std::snprintf(hex, sizeof(hex), "%08x%08x%08x%08x", rd(), rd(), rd(),
                  rd());
    cfg.dist.token = hex;
  }
  return cfg;
}

}  // namespace

std::size_t Coordinator::effective_lease_tests(
    const core::CampaignConfig& cfg) {
  const std::size_t batch = std::max<std::size_t>(1, cfg.batch_size);
  if (cfg.dist.lease_tests != 0) {
    return std::min(cfg.dist.lease_tests, batch);
  }
  // Default: at least two leases per worker per batch, so a lost worker's
  // outstanding work re-issues at useful granularity and the tail of a
  // batch load-balances.
  const std::size_t procs = std::max<std::size_t>(1, cfg.dist.num_procs);
  return std::max<std::size_t>(1, (batch + 2 * procs - 1) / (2 * procs));
}

std::int64_t Coordinator::effective_heartbeat_timeout_ms() const {
  if (cfg_.dist.heartbeat_ms == 0) return 0;
  if (cfg_.dist.heartbeat_timeout_ms != 0) {
    return cfg_.dist.heartbeat_timeout_ms;
  }
  return static_cast<std::int64_t>(cfg_.dist.heartbeat_ms) * 8;
}

Coordinator::Coordinator(const core::CampaignConfig& cfg, bool use_suite)
    : cfg_(with_fleet_token(cfg)), use_suite_(use_suite),
      lease_tests_(effective_lease_tests(cfg)) {
  set_log_role("coord");
  if (cfg_.dist.fault.any()) {
    // The fault schedule forks off the campaign seed: reproducible, and
    // decorrelated from every generator stream.
    injector_ =
        std::make_shared<FaultInjector>(cfg_.dist.fault, Rng(cfg_.seed));
  }
  transport_ = std::make_unique<Transport>(cfg_);
  for (std::unique_ptr<Channel>& chan : transport_->start()) {
    (void)add_peer(std::move(chan), kHandshakeTimeoutMs);
  }
  if (live_workers() == 0 && !transport_->children_gone()) {
    // Handshake faults can wipe the whole initial fleet; the workers are
    // redialing right now, so give them the reconnect window before
    // declaring the campaign dead on arrival. When every spawned child has
    // already exited, nobody local is left to redial.
    await_reconnect(static_cast<int>(cfg_.dist.reconnect_wait_ms));
  }
  if (live_workers() == 0) {
    throw std::runtime_error(
        "dist coordinator: no worker process survived the handshake");
  }
}

bool Coordinator::add_peer(std::unique_ptr<Channel> chan,
                           int handshake_timeout_ms) {
  if (!chan || !chan->valid()) return false;
  chan = maybe_wrap_faulty(std::move(chan), injector_, next_channel_ordinal_++);

  std::string payload;
  ser::Status s = chan->recv_frame(&payload, handshake_timeout_ms);
  HelloMsg hello;
  if (s.ok()) s = decode_hello(payload, &hello);
  if (!s.ok()) {
    LOG_WARN("dist: handshake failed reason=\"%s\"", s.message().c_str());
    chan->close();
    return false;
  }

  // Deliberate refusals get a kReject with the reason — the peer must stop
  // redialing, an incompatible worker will never become compatible.
  std::string reject;
  if (hello.protocol != kProtocolVersion) {
    reject = "protocol v" + std::to_string(hello.protocol) + ", expected v" +
             std::to_string(kProtocolVersion);
  } else if (hello.token != cfg_.dist.token) {
    reject = "bad auth token";
  }
  if (reject.empty() &&
      hello.role == static_cast<std::uint8_t>(PeerRole::kStatus)) {
    // Fleet introspection (`chatfuzz fleet status`): one aggregated
    // snapshot, then close. Observation-only — the peer never becomes a
    // worker and is not counted as rejected.
    (void)chan->send_frame(encode_stats_reply(build_fleet_reply()), 5'000);
    chan->close();
    LOG_INFO("dist: served fleet status query pid=%llu",
             static_cast<unsigned long long>(hello.pid));
    return false;
  }
  if (reject.empty() &&
      hello.role != static_cast<std::uint8_t>(PeerRole::kWorker)) {
    reject = "peer role " + std::to_string(hello.role) +
             " is neither 'worker' nor 'status'";
  }
  if (!reject.empty()) {
    LOG_WARN("dist: rejected peer pid=%llu reason=\"%s\"",
             static_cast<unsigned long long>(hello.pid), reject.c_str());
    (void)chan->send_frame(encode_reject(RejectMsg{reject}), 1'000);
    chan->close();
    ++stats_.peers_rejected;
    return false;
  }

  const std::size_t index = workers_.size();
  ConfigMsg config;
  config.cfg = cfg_;
  config.use_suite = use_suite_;
  config.worker_index = index;
  config.max_lease_tests = lease_tests_;
  // The hang injection fires once: on the TCP transport a lost worker's
  // replacement lands in a fresh slot, and re-arming there would hang the
  // whole recovered fleet.
  config.debug_hang =
      index == cfg_.dist.debug_hang_worker && !hang_sent_;
  if (config.debug_hang) hang_sent_ = true;
  config.superblocks = cfg_.superblocks;
  config.config_crc = config_fingerprint(cfg_);
  config.heartbeat_ms = cfg_.dist.heartbeat_ms;
  s = chan->send_frame(encode_config(config), handshake_timeout_ms);
  if (!s.ok()) {
    LOG_WARN("dist: handshake failed reason=\"%s\"", s.message().c_str());
    chan->close();
    return false;
  }

  WorkerPeer w;
  w.chan = std::move(chan);
  w.hello_pid = static_cast<std::int64_t>(hello.pid);
  w.alive = true;
  w.last_progress_ms = now_ms();
  w.last_heartbeat_ms = w.last_progress_ms;
  workers_.push_back(std::move(w));
  ++stats_.workers_spawned;
  return true;
}

void Coordinator::accept_pending() {
  while (auto chan = transport_->accept_peer()) {
    ++stats_.peers_accepted;
    (void)add_peer(std::move(chan), kLateHandshakeTimeoutMs);
  }
}

void Coordinator::await_reconnect(int window_ms) {
  OBS_SPAN("dist.await_reconnect");
  LOG_WARN("dist: fleet empty, waiting up to %dms for a reconnect",
           window_ms);
  const std::int64_t deadline = now_ms() + window_ms;
  while (live_workers() == 0) {
    const std::int64_t left = deadline - now_ms();
    if (left <= 0) return;
    struct pollfd pfd = {transport_->listen_fd(), POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left));
    if (pr < 0 && errno != EINTR) return;
    if (pr > 0) accept_pending();
  }
}

void Coordinator::lose_worker(std::size_t index, LossCause cause,
                              const std::string& why,
                              std::vector<std::size_t>* requeue) {
  WorkerPeer& w = workers_[index];
  if (!w.alive) return;
  switch (cause) {
    case LossCause::kDisconnect: ++stats_.lost_disconnect; break;
    case LossCause::kNoProgress: ++stats_.lost_no_progress; break;
    case LossCause::kNoHeartbeat: ++stats_.lost_no_heartbeat; break;
  }
  // One structured line per dropped peer (S1 of the robustness contract):
  // everything an operator needs to grep a fleet incident.
  LOG_WARN("dist: dropped peer worker=%zu pid=%lld reason=\"%s\" "
           "leases_requeued=%zu",
           index, static_cast<long long>(w.hello_pid), why.c_str(),
           w.leases.size());
  // A lost local child is not killed: a disconnected one redials on its
  // own, and teardown reaps whatever is left.
  w.chan->close();
  w.alive = false;
  ++stats_.workers_lost;
  if (requeue != nullptr) {
    for (const WorkerPeer::Hold& h : w.leases) {
      requeue->push_back(h.lease);
      ++stats_.leases_reissued;
    }
  }
  w.leases.clear();
}

std::size_t Coordinator::live_workers() const {
  std::size_t n = 0;
  for (const WorkerPeer& w : workers_) n += w.alive ? 1 : 0;
  return n;
}

void Coordinator::fleet_metrics(
    std::vector<std::pair<std::string, double>>* out) {
  const auto put = [&](const char* name, double v) {
    out->emplace_back(name, v);
  };
  put("fleet.workers_live", static_cast<double>(live_workers()));
  put("fleet.workers_spawned", static_cast<double>(stats_.workers_spawned));
  put("fleet.workers_lost", static_cast<double>(stats_.workers_lost));
  put("fleet.leases_issued", static_cast<double>(stats_.leases_issued));
  put("fleet.leases_reissued", static_cast<double>(stats_.leases_reissued));
  put("fleet.peers_accepted", static_cast<double>(stats_.peers_accepted));
  put("fleet.peers_rejected", static_cast<double>(stats_.peers_rejected));
  put("fleet.lost_disconnect", static_cast<double>(stats_.lost_disconnect));
  put("fleet.lost_no_progress", static_cast<double>(stats_.lost_no_progress));
  put("fleet.lost_no_heartbeat",
      static_cast<double>(stats_.lost_no_heartbeat));
  put("fleet.heartbeats_seen", static_cast<double>(stats_.heartbeats_seen));
  put("fleet.slow_demotions", static_cast<double>(stats_.slow_demotions));
  put("fleet.faults_injected", static_cast<double>(faults_injected()));

  // Latest per-worker registry snapshots, summed by metric name. Dead
  // peers keep contributing their last report — their work happened.
  std::map<std::string, double> agg;
  for (const WorkerPeer& w : workers_) {
    for (const auto& [name, value] : w.last_metrics) agg[name] += value;
  }
  for (const auto& [name, value] : agg) {
    out->emplace_back("fleet.worker." + name, value);
  }

  // Refresh: ask every live worker for its current snapshot. Replies ride
  // back through run_batch's poll loop like heartbeats; the NEXT call sees
  // them. Best-effort — a stalled send here must never take a peer down
  // (the lease/heartbeat paths own failure detection).
  for (WorkerPeer& w : workers_) {
    if (!w.alive) continue;
    (void)w.chan->send_frame(encode_stats_request(), 1'000);
  }
}

StatsReplyMsg Coordinator::build_fleet_reply() {
  StatsReplyMsg reply;
  // The coordinator lives inside the engine process, so its own registry
  // snapshot IS the campaign view (campaign.* counters, gauges, histos).
  reply.metrics = obs::registry().snapshot();
  fleet_metrics(&reply.metrics);
  const std::int64_t now = now_ms();
  for (const WorkerPeer& w : workers_) {
    PeerStatusEntry e;
    e.pid = static_cast<std::uint64_t>(w.hello_pid);
    e.alive = w.alive;
    e.demoted = w.demoted;
    e.leases_held = static_cast<std::uint32_t>(w.leases.size());
    e.results = w.results;
    e.heartbeat_age_ms =
        w.alive ? static_cast<std::uint64_t>(
                      std::max<std::int64_t>(0, now - w.last_heartbeat_ms))
                : ~0ull;
    reply.peers.push_back(e);
  }
  return reply;
}

std::size_t Coordinator::allowed_depth(std::size_t index) const {
  return workers_[index].demoted ? 1 : 2;
}

void Coordinator::note_lease_done(WorkerPeer& w, std::int64_t now) {
  const double sample =
      static_cast<double>(std::max<std::int64_t>(0, now - w.leases.front().issued_ms));
  w.ema_lease_ms =
      w.ema_samples == 0 ? sample : 0.7 * w.ema_lease_ms + 0.3 * sample;
  ++w.ema_samples;

  // Slow-host demotion: a worker whose completion EMA exceeds twice the
  // fleet median loses its double-buffer slot — it keeps simulating, it
  // just never queues two leases. Scheduling only; results fold into
  // canonical slots either way, so determinism is untouched. Sticky for
  // the rest of the campaign (a host that degraded once is suspect).
  std::vector<double> emas;
  for (const WorkerPeer& p : workers_) {
    if (p.alive && p.ema_samples >= 2) emas.push_back(p.ema_lease_ms);
  }
  if (emas.size() < 2) return;
  std::sort(emas.begin(), emas.end());
  const double median = emas[emas.size() / 2];
  for (WorkerPeer& p : workers_) {
    if (p.alive && !p.demoted && p.ema_samples >= 2 &&
        p.ema_lease_ms > 2.0 * median) {
      p.demoted = true;
      ++stats_.slow_demotions;
      LOG_WARN("dist: demoted slow peer pid=%lld ema=%.0fms median=%.0fms",
               static_cast<long long>(p.hello_pid), p.ema_lease_ms, median);
    }
  }
}

void Coordinator::maybe_fire_kill_injection() {
  const std::size_t target = cfg_.dist.debug_kill_worker;
  if (kill_fired_ || target >= workers_.size()) return;
  if (results_folded_ < cfg_.dist.debug_kill_after_results) return;
  kill_fired_ = true;
  if (workers_[target].alive) {
    // SIGKILL only — detection and lease reassignment must flow through the
    // same EOF path a real worker crash takes. The pid is the one from the
    // hello (test fleets are local).
    const pid_t pid = static_cast<pid_t>(workers_[target].hello_pid);
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

void Coordinator::run_batch(const std::vector<core::Program>& batch,
                            std::uint64_t base,
                            std::vector<core::TestArtifact>& artifacts,
                            const LeaseReadyFn& on_ready) {
  const std::size_t num_leases =
      (batch.size() + lease_tests_ - 1) / lease_tests_;
  // Queue of lease indices still to (re)assign; popped back-to-front so
  // first-time issue runs ascending. Order is scheduling only — the fold is
  // by canonical artifact slot, not arrival.
  std::vector<std::size_t> queue;
  queue.reserve(num_leases);
  for (std::size_t l = num_leases; l > 0; --l) queue.push_back(l - 1);
  std::vector<std::uint8_t> done(num_leases, 0);
  std::size_t remaining = num_leases;
  std::size_t next_ready = 0;  // first lease not yet announced to on_ready

  const auto lease_range = [&](std::size_t l) {
    const std::size_t start = l * lease_tests_;
    const std::size_t count = std::min(lease_tests_, batch.size() - start);
    return std::pair<std::size_t, std::size_t>(start, count);
  };

  /// Announce every contiguous completed lease past the fold frontier, as
  /// one span — keeps the engine folding in canonical order with no gaps
  /// while the remaining leases are still out simulating.
  const auto announce_ready = [&] {
    if (!on_ready) return;
    const std::size_t first = next_ready;
    while (next_ready < num_leases && done[next_ready] != 0) ++next_ready;
    if (next_ready == first) return;
    const std::size_t start = first * lease_tests_;
    const std::size_t end =
        std::min(batch.size(), next_ready * lease_tests_);
    on_ready(start, end - start);
  };

  const std::int64_t hb_timeout = effective_heartbeat_timeout_ms();

  LeaseResultMsg result;
  while (remaining > 0) {
    accept_pending();
    if (live_workers() == 0) {
      await_reconnect(static_cast<int>(cfg_.dist.reconnect_wait_ms));
      if (live_workers() == 0) {
        throw std::runtime_error(
            "dist coordinator: every worker process was lost; " +
            std::to_string(remaining) + " lease(s) of the current batch "
            "cannot be completed");
      }
    }

    // Assign queued leases to survivors with capacity, round-robin so the
    // double-buffer slots fill evenly before anyone gets a second lease.
    {
      OBS_SPAN("dist.lease_issue");
      for (std::size_t depth = 0; depth < 2 && !queue.empty(); ++depth) {
        for (std::size_t wi = 0; wi < workers_.size() && !queue.empty();
             ++wi) {
          WorkerPeer& w = workers_[wi];
          if (!w.alive || w.leases.size() != depth) continue;
          if (depth >= allowed_depth(wi)) continue;
          const std::size_t l = queue.back();
          const auto [start, count] = lease_range(l);
          LeaseMsg lease;
          lease.lease_id = l;
          lease.base_index = base + start;
          lease.tests.assign(
              batch.begin() + static_cast<std::ptrdiff_t>(start),
              batch.begin() + static_cast<std::ptrdiff_t>(start + count));
          // Bound the send by the same no-progress window as receives: a
          // worker that stops draining its socket is hung, and a stalled
          // send must not keep run_batch from ever reaching the expiry
          // loop.
          const int send_timeout =
              cfg_.dist.lease_timeout_ms != 0
                  ? static_cast<int>(cfg_.dist.lease_timeout_ms)
                  : -1;
          const ser::Status s =
              w.chan->send_frame(encode_lease(lease), send_timeout);
          if (!s.ok()) {
            // Dead on send: do NOT pop — the lease stays queued for a
            // survivor.
            lose_worker(wi, LossCause::kDisconnect, s.message(), &queue);
            continue;
          }
          queue.pop_back();
          w.leases.push_back({l, now_ms()});
          w.last_progress_ms = now_ms();
          ++stats_.leases_issued;
        }
      }
    }
    maybe_fire_kill_injection();

    // Wait for any worker to deliver (a result or a heartbeat), a lease or
    // heartbeat deadline to pass, or a new peer to dial in.
    struct pollfd pfds[66];
    std::size_t worker_of_pfd[66];
    pfds[0] = {transport_->listen_fd(), POLLIN, 0};
    worker_of_pfd[0] = static_cast<std::size_t>(-1);
    std::size_t n_pfds = 1;
    int timeout = -1;
    const auto consider_deadline = [&](std::int64_t deadline) {
      const std::int64_t left = deadline - now_ms();
      const int left_ms = static_cast<int>(std::max<std::int64_t>(0, left));
      timeout = timeout < 0 ? left_ms : std::min(timeout, left_ms);
    };
    std::size_t busy = 0;
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      const WorkerPeer& w = workers_[wi];
      if (!w.alive) continue;
      // Every live peer is polled, busy or not: idle peers still heartbeat,
      // disconnect, or get rejected frames to report.
      if (n_pfds < 66) {
        pfds[n_pfds] = {w.chan->poll_fd(), POLLIN, 0};
        worker_of_pfd[n_pfds] = wi;
        ++n_pfds;
      }
      if (!w.leases.empty()) {
        ++busy;
        if (cfg_.dist.lease_timeout_ms != 0) {
          consider_deadline(
              w.last_progress_ms +
              static_cast<std::int64_t>(cfg_.dist.lease_timeout_ms));
        }
      }
      if (hb_timeout > 0) {
        consider_deadline(w.last_heartbeat_ms + hb_timeout);
      }
    }
    if (busy == 0 && !queue.empty()) continue;  // survivors idle: reassign
    const int pr = ::poll(pfds, static_cast<nfds_t>(n_pfds), timeout);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("dist coordinator: poll: ") +
                               std::strerror(errno));
    }

    const auto readable = [&](std::size_t wi) {
      for (std::size_t p = 0; p < n_pfds; ++p) {
        if (worker_of_pfd[p] == wi) return (pfds[p].revents & POLLIN) != 0;
      }
      return false;
    };

    // Expire dead and hung peers (poll timed out, or delivery raced the
    // deadline). Heartbeat silence is checked first: "no heartbeat" means
    // the host/link is GONE, while "heartbeats current but the lease timed
    // out" means the worker is wedged — different failure, different
    // counter, same recovery (drop + re-issue).
    const std::int64_t now = now_ms();
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      WorkerPeer& w = workers_[wi];
      if (!w.alive || readable(wi)) continue;
      if (hb_timeout > 0 && now - w.last_heartbeat_ms >= hb_timeout) {
        lose_worker(wi, LossCause::kNoHeartbeat,
                    "no heartbeat for " +
                        std::to_string(now - w.last_heartbeat_ms) +
                        "ms (dead or unreachable)",
                    &queue);
        continue;
      }
      if (!w.leases.empty() && cfg_.dist.lease_timeout_ms != 0 &&
          now - w.last_progress_ms >=
              static_cast<std::int64_t>(cfg_.dist.lease_timeout_ms)) {
        lose_worker(wi, LossCause::kNoProgress,
                    "lease timed out (worker hung: heartbeats current, "
                    "no result)",
                    &queue);
      }
    }

    for (std::size_t p = 0; p < n_pfds; ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t wi = worker_of_pfd[p];
      if (wi == static_cast<std::size_t>(-1)) {
        accept_pending();
        continue;
      }
      WorkerPeer& w = workers_[wi];
      if (!w.alive) continue;  // lost above
      std::string payload;
      ser::Status s = w.chan->recv_frame(
          &payload, cfg_.dist.lease_timeout_ms != 0
                        ? static_cast<int>(cfg_.dist.lease_timeout_ms)
                        : -1);
      if (s.ok() && peek_type(payload) == MsgType::kHeartbeat) {
        HeartbeatMsg hb;
        s = decode_heartbeat(payload, &hb);
        if (s.ok()) {
          w.last_heartbeat_ms = now_ms();
          ++stats_.heartbeats_seen;
          continue;
        }
      }
      if (s.ok() && peek_type(payload) == MsgType::kStatsReply) {
        // Telemetry answer to an earlier kStatsRequest — store it for
        // fleet_metrics and move on; it is liveness too, like a heartbeat.
        StatsReplyMsg sr;
        s = decode_stats_reply(payload, &sr);
        if (s.ok()) {
          w.last_metrics = std::move(sr.metrics);
          w.last_heartbeat_ms = now_ms();
          continue;
        }
      }
      OBS_SPAN("dist.result_decode");
      if (s.ok()) s = decode_lease_result(payload, &result);
      if (s.ok() &&
          (w.leases.empty() || result.lease_id != w.leases.front().lease)) {
        // Leases are served FIFO over a FIFO socket, so anything but the
        // head is a protocol violation.
        s = ser::Status::error("worker answered lease " +
                               std::to_string(result.lease_id) +
                               " out of order or unheld");
      }
      if (s.ok()) {
        const std::size_t l = w.leases.front().lease;
        const auto [start, count] = lease_range(l);
        if (result.artifacts.size() != count) {
          s = ser::Status::error("lease result carries " +
                                 std::to_string(result.artifacts.size()) +
                                 " artifacts, expected " +
                                 std::to_string(count));
        } else {
          // Canonical slots: WHERE a test ran never shows in the fold.
          for (std::size_t j = 0; j < count; ++j) {
            artifacts[start + j] = std::move(result.artifacts[j]);
          }
          done[l] = 1;
          --remaining;
          ++results_folded_;
          ++w.results;
          const std::int64_t tnow = now_ms();
          note_lease_done(w, tnow);
          w.leases.erase(w.leases.begin());
          w.last_progress_ms = tnow;
          w.last_heartbeat_ms = tnow;
          announce_ready();
        }
      }
      if (!s.ok()) {
        lose_worker(wi, LossCause::kDisconnect, s.message(), &queue);
        continue;
      }
      maybe_fire_kill_injection();
    }
  }
}

Coordinator::~Coordinator() {
  for (WorkerPeer& w : workers_) {
    if (!w.alive) continue;
    // Best-effort clean shutdown; EOF from the closed channel doubles as
    // the signal for workers that miss the frame.
    (void)w.chan->send_frame(encode_shutdown(), 1'000);
    w.chan->close();
    w.alive = false;
  }
  // One shared grace window across all spawned children, then force the
  // stragglers: teardown is bounded no matter how many workers wedged, and
  // the destructor can never hang. (External TCP peers just see EOF.)
  transport_->reap_children(5'000);
}

}  // namespace chatfuzz::dist
