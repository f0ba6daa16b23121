// Transport seam of the distributed campaign subsystem: where worker
// connections come from, kept apart from the coordinator's scheduling
// logic. There is one transport, TCP. The coordinator binds a listener
// (cfg.dist.listen, or an ephemeral 127.0.0.1 port when that is empty),
// spawns num_procs local children of this binary that dial it back as
// `worker --connect 127.0.0.1:<port>`, and accepts external
// `chatfuzz worker --connect` dial-ins — before AND during the campaign,
// which is what makes worker reconnect-with-backoff work: a reconnected
// worker is just a freshly accepted peer.
//
// Spawned children learn two things through their environment, never
// their argv (/proc/<pid>/cmdline is world-readable): the handshake token
// (kWorkerTokenEnv) and the coordinator's pid (kCoordinatorPidEnv), so a
// child stops redialing once its coordinator is gone.
//
// The Channel interface is the same seam one level down: SocketChannel is
// the concrete socket implementation, and dist::FaultyChannel (fault.h)
// wraps any Channel to inject wire faults for the dist_fault suite.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "dist/protocol.h"

namespace chatfuzz::dist {

/// One framed peer link. Implementations must surface every failure as a
/// ser::Status (never a crash), exactly like FrameChannel.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual bool valid() const = 0;
  /// fd to include in a poll() set for readability. A wrapper returns its
  /// inner channel's fd — whatever trickery it plays happens per frame.
  virtual int poll_fd() const = 0;
  virtual void close() = 0;
  virtual ser::Status send_frame(const std::string& payload,
                                 int timeout_ms = -1) = 0;
  virtual ser::Status recv_frame(std::string* payload, int timeout_ms = -1) = 0;
};

/// The plain FrameChannel behind the Channel seam.
class SocketChannel final : public Channel {
 public:
  SocketChannel() = default;
  explicit SocketChannel(int fd) : chan_(fd) {}
  bool valid() const override { return chan_.valid(); }
  int poll_fd() const override { return chan_.fd(); }
  void close() override { chan_.close(); }
  ser::Status send_frame(const std::string& payload,
                         int timeout_ms = -1) override {
    return chan_.send_frame(payload, timeout_ms);
  }
  ser::Status recv_frame(std::string* payload, int timeout_ms = -1) override {
    return chan_.recv_frame(payload, timeout_ms);
  }

 private:
  FrameChannel chan_;
};

/// Environment variables the transport sets for the children it spawns
/// (and strips from the environment they would otherwise inherit).
inline constexpr const char* kWorkerTokenEnv = "CHATFUZZ_WORKER_TOKEN";
inline constexpr const char* kCoordinatorPidEnv = "CHATFUZZ_COORDINATOR_PID";

/// The coordinator's end of the fleet: a TCP listener plus the local
/// children that dial it. Throws std::runtime_error from the constructor
/// when the listener cannot be bound.
class Transport {
 public:
  /// Binds the listener and writes cfg.dist.port_file. Spawned children
  /// authenticate with cfg.dist.token.
  explicit Transport(const core::CampaignConfig& cfg);
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Spawn the local children and accept dial-ins until every child has
  /// either dialed or exited. May return fewer channels than children (a
  /// late dialer joins through accept_peer()); external workers landing
  /// in the same window are peers too. Deciding whether zero is fatal is
  /// the caller's job.
  std::vector<std::unique_ptr<Channel>> start();
  /// fd to poll for dial-ins.
  int listen_fd() const { return listen_fd_; }
  /// Accept one pending dial-in without blocking; null when none.
  std::unique_ptr<Channel> accept_peer();
  /// True when children were asked for and none is running any more, so
  /// no local dial-in can still arrive.
  bool children_gone();
  /// Reap all spawned children: a shared grace window for voluntary exits
  /// (the coordinator has already sent shutdown frames / closed channels),
  /// then SIGKILL for the stragglers. Idempotent; never hangs.
  void reap_children(int grace_ms);

 private:
  /// posix_spawn one `worker --connect` child (a failure is logged).
  void spawn_child();
  /// Reap the children that have exited, without blocking; returns how
  /// many are still running.
  std::size_t running_children();

  std::size_t num_procs_;
  std::string worker_exe_;
  std::string token_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// Spawned children not yet reaped (reconnecting workers keep their pid
  /// across redials).
  std::vector<pid_t> children_;
};

// ---- TCP plumbing (shared with the worker and fleet-status dial side) -----

struct HostPort {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parse "host:port" (IPv4 dotted quad, "localhost", or empty host for
/// 0.0.0.0). Port 0 is allowed (ephemeral bind). nullopt on syntax errors.
std::optional<HostPort> parse_hostport(const std::string& s);

/// Connect with a bounded wait; returns the fd (TCP_NODELAY + keepalive,
/// so a vanished peer is detected even while blocked in a frame read) or
/// -1 with *err set.
int tcp_connect(const HostPort& hp, int timeout_ms, std::string* err);

}  // namespace chatfuzz::dist
