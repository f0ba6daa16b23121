// Coordinator of the distributed campaign subsystem: owns a fleet of worker
// peers (local children dialing back over loopback, and remote dial-ins,
// any of which may join and REJOIN mid-campaign), splits every batch into
// fixed-size test-index leases, and collects one TestArtifact per test
// back into the batch's canonical slots. The campaign engine then folds
// those artifacts exactly as it folds thread-pool artifacts — which is the
// whole determinism story: the coordinator changes WHERE tests run, never
// what is folded or in what order, so results, coverage DB bytes, mismatch
// DB bytes and corpus-store bytes are bit-identical to a single-process run
// for any process count, worker thread count, lease schedule — and any
// fault schedule.
//
// Fault tolerance: a worker that disconnects (EOF/SIGKILL/crash/wire
// fault), goes silent past the heartbeat window (dead host), or keeps
// heartbeating without ever completing a lease (hung host) is dropped and
// its outstanding leases re-issue to survivors; the three causes are
// counted separately. A lease is folded exactly once — reassignment only
// ever happens after the original worker's channel is closed, so a
// duplicate result cannot arrive. A dropped worker redials with capped
// exponential backoff and comes back as a fresh peer; persistently slow
// hosts keep working but lose their double-buffer slot.
// Only when every peer is gone AND nobody redials within reconnect_wait_ms
// does the batch (and campaign) fail with std::runtime_error.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/sim_worker.h"
#include "dist/fault.h"
#include "dist/protocol.h"
#include "dist/transport.h"

namespace chatfuzz::dist {

/// Observability counters (tests assert on these; benches report them).
struct CoordinatorStats {
  std::size_t workers_spawned = 0;   // completed handshakes (reconnects too)
  std::size_t workers_lost = 0;      // = the three lost_* causes below
  std::size_t leases_issued = 0;     // first-time assignments
  std::size_t leases_reissued = 0;   // reassignments after a lost worker
  std::size_t peers_accepted = 0;    // accepts outside the spawn window:
                                     // external joiners + redials
  std::size_t peers_rejected = 0;    // refused at handshake (token/version/
                                     // config fingerprint/role)
  std::size_t lost_disconnect = 0;   // EOF, wire fault, protocol violation
  std::size_t lost_no_progress = 0;  // hung: heartbeats fine, no results
  std::size_t lost_no_heartbeat = 0; // dead: silence past heartbeat window
  std::size_t heartbeats_seen = 0;
  std::size_t slow_demotions = 0;    // double-buffer slots revoked
};

class Coordinator {
 public:
  /// Brings up the transport (listen, spawn, accept) and handshakes the
  /// initial fleet. Throws std::runtime_error when no worker comes up.
  Coordinator(const core::CampaignConfig& cfg, bool use_suite);
  /// Sends shutdown to survivors and reaps every spawned child.
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Ready notification for the engine's incremental fold: artifact slots
  /// [start, start+count) are filled AND every slot before them has already
  /// been announced — calls arrive in canonical order with no gaps, so the
  /// engine folds lease results while later leases are still simulating
  /// (the coordinator's decode+fold overlaps worker wall-clock instead of
  /// serializing after the batch barrier).
  using LeaseReadyFn =
      std::function<void(std::size_t start, std::size_t count)>;

  /// Simulate `batch` (global indices [base, base+batch.size())) across the
  /// worker pool. artifacts[i] receives test base+i's artifact; the vector
  /// must already have batch.size() slots. Throws when every worker is
  /// lost and nobody reconnects in time.
  void run_batch(const std::vector<core::Program>& batch, std::uint64_t base,
                 std::vector<core::TestArtifact>& artifacts,
                 const LeaseReadyFn& on_ready = {});

  const CoordinatorStats& stats() const { return stats_; }
  std::size_t live_workers() const;

  /// Fleet telemetry for the --stats NDJSON stream: appends the
  /// coordinator's own counters (fleet.leases_issued, fleet.lost_*, ...)
  /// and the per-worker obs-registry snapshots aggregated by name
  /// (fleet.worker.<metric>, summed across peers). Also fires a
  /// kStatsRequest at every live worker so the NEXT snapshot is fresh —
  /// replies are absorbed by run_batch's poll loop out-of-band, exactly
  /// like heartbeats. Observation-only.
  void fleet_metrics(std::vector<std::pair<std::string, double>>* out);
  /// Wire faults the injector has fired so far (0 when injection is off).
  std::size_t faults_injected() const {
    return injector_ ? injector_->injected() : 0;
  }

  /// Tests per lease for this config: cfg.dist.lease_tests, or the
  /// ceil(batch / 2*procs) default, clamped to [1, batch_size].
  static std::size_t effective_lease_tests(const core::CampaignConfig& cfg);

 private:
  struct WorkerPeer {
    std::unique_ptr<Channel> chan;
    std::int64_t hello_pid = 0; // pid the worker reported in its hello
    bool alive = false;
    /// Outstanding leases, FIFO (workers serve strictly in order, so
    /// results must arrive front-first). Capped at two: the second lease
    /// double-buffers — it sits in the worker's socket so the worker rolls
    /// straight into it while the coordinator decodes and folds the
    /// previous result, instead of idling a round-trip per lease.
    struct Hold {
      std::size_t lease = 0;
      std::int64_t issued_ms = 0;
    };
    std::vector<Hold> leases;
    std::int64_t last_progress_ms = 0;   // steady ms of last assign/result
    std::int64_t last_heartbeat_ms = 0;  // steady ms of last frame of ANY kind
    /// Completion-time EMA for slow-host detection. Scheduling only: a
    /// demoted worker still gets leases, just never two at once.
    double ema_lease_ms = 0.0;
    std::size_t ema_samples = 0;
    bool demoted = false;
    std::uint64_t results = 0;  // lease results folded from this peer
    /// Latest kStatsReply metric snapshot from this worker (telemetry).
    std::vector<std::pair<std::string, double>> last_metrics;
  };

  enum class LossCause { kDisconnect, kNoProgress, kNoHeartbeat };

  /// Handshake one dialed-in peer into the fleet (wraps the channel with
  /// the fault injector when armed). Returns false when the peer was
  /// rejected or the handshake failed.
  bool add_peer(std::unique_ptr<Channel> chan, int handshake_timeout_ms);
  /// Drain the transport's pending accepts (nonblocking).
  void accept_pending();
  /// Block up to `window_ms` waiting for a dial-in to restore the fleet.
  void await_reconnect(int window_ms);
  /// Close, classify, log (one structured line), re-queue held leases.
  void lose_worker(std::size_t index, LossCause cause, const std::string& why,
                   std::vector<std::size_t>* requeue);
  /// Double-buffer depth for this worker: 1 when demoted as slow, 2 else.
  std::size_t allowed_depth(std::size_t index) const;
  void note_lease_done(WorkerPeer& w, std::int64_t now);
  void maybe_fire_kill_injection();
  std::int64_t effective_heartbeat_timeout_ms() const;
  /// The kStatus handshake answer: fleet table + aggregated metrics.
  StatsReplyMsg build_fleet_reply();

  /// The campaign config; dist.token holds the fleet's handshake token
  /// (minted per campaign for a default fleet).
  core::CampaignConfig cfg_;
  bool use_suite_ = false;
  std::size_t lease_tests_ = 1;
  std::unique_ptr<Transport> transport_;
  std::shared_ptr<FaultInjector> injector_;
  std::uint64_t next_channel_ordinal_ = 0;
  std::vector<WorkerPeer> workers_;
  CoordinatorStats stats_;
  std::size_t results_folded_ = 0;
  bool kill_fired_ = false;
  bool hang_sent_ = false;
};

}  // namespace chatfuzz::dist
