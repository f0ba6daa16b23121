// Wire protocol of the distributed campaign subsystem: length-prefixed,
// CRC'd frames over a connected stream socket (the coordinator/worker TCP
// connection), with versioned messages encoded through util/serialize.
//
//   frame   := [magic u32][payload_len u32][crc32(payload) u32][payload]
//   payload := [msg type u8][fields...]
//
// Contract: a malformed frame — wrong magic, absurd length, CRC failure,
// short read, unknown message type, truncated fields — surfaces as a
// ser::Status error (or a failed Reader), NEVER as a crash or an
// out-of-bounds read; every decoder bounds-checks counts against the bytes
// actually present. The protocol version travels in the hello/config
// handshake and is exact-match: a coordinator refuses workers speaking
// anything else.
//
// Message flow (coordinator <-> worker):
//   worker -> kHello            once per connection, right after dialing
//   coord  -> kConfig           campaign config + per-worker knobs
//   coord  -> kLease            a [base, base+n) slice of a batch, with
//                               the test programs (the generator lives on
//                               the coordinator; workers only simulate)
//   worker -> kLeaseResult      per-test artifacts: sparse coverage deltas,
//                               metric bins, ctrl states, mismatch records
//                               with signatures, cycle/step stats — and no
//                               trace or test bytes (the coordinator keeps
//                               the batch it generated, so result frames
//                               stay small)
//   coord  -> kShutdown         clean exit at campaign end
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/sim_worker.h"
#include "util/serialize.h"

namespace chatfuzz::dist {

// v2: config frames carry the superblock/BBV knobs; artifact encodings
// carry the per-test basic-block vector (empty unless collection is on).
// v3: the campaign config inside kConfig frames carries the multi-DUT list
// and the out-of-order backend fields (core::write_campaign_config v4
// layout) — a v2 worker would build the wrong simulation stacks, so the
// version gate must refuse the pairing.
// v4: the multi-host handshake. Hellos carry an auth token and a peer role
// (campaign worker vs. federation client); configs carry a fingerprint
// (CRC) of the coordinator's own write_campaign_config bytes so mixed
// binaries whose serializers drifted are refused even when the version
// numbers agree; kReject tells a refused peer WHY before the close (so it
// can stop redialing); kHeartbeat carries worker liveness between results;
// kFed* carry corpus federation deltas.
// v5: fleet introspection. A kStatus-role hello asks for one kStatsReply
// (the coordinator's aggregated fleet state) and the connection closes —
// the `chatfuzz fleet status` CLI; kStatsRequest asks a worker to answer
// with a kStatsReply snapshot of its own obs metrics registry, which the
// coordinator folds into the --stats NDJSON stream. Observation-only: no
// stats frame ever carries or mutates campaign state.
// v6: corpus federation and the BBV log are gone: the kFed* frames, the
// federate role, ConfigMsg's BBV flag and the artifact's BBV varint. The
// stats frames move down to 8 and 9, so the message types stay contiguous
// and peek_type's range check stays exact.
inline constexpr std::uint32_t kProtocolVersion = 6;
inline constexpr std::uint32_t kFrameMagic = 0x4346444D;  // "CFDM"
/// Upper bound on one frame's payload; a length prefix beyond this is
/// treated as corruption (it would otherwise become an allocation bomb).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 28;  // 256 MiB

enum class MsgType : std::uint8_t {
  kInvalid = 0,
  kHello = 1,
  kConfig = 2,
  kLease = 3,
  kLeaseResult = 4,
  kShutdown = 5,
  kReject = 6,
  kHeartbeat = 7,
  kStatsRequest = 8,
  kStatsReply = 9,
};

/// What a hello's sender wants from the connection. 1 is retired (see v6
/// above); a hello carrying it is refused.
enum class PeerRole : std::uint8_t { kWorker = 0, kStatus = 2 };

struct HelloMsg {
  std::uint32_t protocol = kProtocolVersion;
  std::uint64_t pid = 0;
  std::uint8_t role = static_cast<std::uint8_t>(PeerRole::kWorker);
  std::string token;  // must equal the listener's token (empty = open)
};

struct ConfigMsg {
  std::uint32_t protocol = kProtocolVersion;
  core::CampaignConfig cfg;        // simulation-relevant subset (see
                                   // core::write_campaign_config)
  bool use_suite = false;          // attach the toggle/FSM/statement suite
  std::uint64_t worker_index = 0;  // this worker's slot (diagnostics)
  std::uint64_t max_lease_tests = 1;  // cap for the worker's thread pool
  bool debug_hang = false;         // fault injection: stall on first lease
  // Per-run knobs that write_campaign_config deliberately excludes (they
  // are scheduling/persistence, not checkpoint state) but that workers must
  // still honor for the current run:
  bool superblocks = true;         // dispatch engine selection
  /// config_fingerprint() of cfg as the coordinator serialized it. The
  /// worker recomputes the fingerprint from its own decode and refuses the
  /// pairing on mismatch — catches layout drift between mixed builds that
  /// a bare version number cannot.
  std::uint32_t config_crc = 0;
  std::uint32_t heartbeat_ms = 0;  // worker heartbeat period (0 = off)
};

/// Why a peer is being turned away (sent instead of a config/ack; the
/// peer must treat it as fatal and stop redialing).
struct RejectMsg {
  std::string reason;
};

struct HeartbeatMsg {
  std::uint64_t served = 0;  // leases completed so far (diagnostics)
};

struct LeaseMsg {
  std::uint64_t lease_id = 0;
  std::uint64_t base_index = 0;    // global index of tests[0]
  std::vector<core::Program> tests;
};

struct LeaseResultMsg {
  std::uint64_t lease_id = 0;
  std::vector<core::TestArtifact> artifacts;  // one per leased test, in order
};

// ---- fleet introspection (v5) ---------------------------------------------

/// Live view of one peer as the coordinator sees it (kStatus replies).
struct PeerStatusEntry {
  std::uint64_t pid = 0;
  bool alive = false;
  bool demoted = false;          // exceeded the slow-peer EMA threshold
  std::uint32_t leases_held = 0; // outstanding right now
  std::uint64_t results = 0;     // lease results folded from this peer
  std::uint64_t heartbeat_age_ms = 0;  // since the last heartbeat (or ~0)
};

/// A metrics snapshot: name/value pairs from the sender's obs registry,
/// plus (coordinator -> status client only) the per-peer fleet table.
struct StatsReplyMsg {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<PeerStatusEntry> peers;
};

/// Type tag of an encoded payload (kInvalid when empty).
MsgType peek_type(const std::string& payload);

/// CRC of `cfg` as write_campaign_config serializes it on THIS binary —
/// both handshake sides compute it independently; a mismatch means their
/// serializers disagree about the config layout.
std::uint32_t config_fingerprint(const core::CampaignConfig& cfg);

std::string encode_hello(const HelloMsg& msg);
std::string encode_config(const ConfigMsg& msg);
std::string encode_lease(const LeaseMsg& msg);
std::string encode_lease_result(const LeaseResultMsg& msg);
std::string encode_shutdown();
std::string encode_reject(const RejectMsg& msg);
std::string encode_heartbeat(const HeartbeatMsg& msg);
std::string encode_stats_request();
std::string encode_stats_reply(const StatsReplyMsg& msg);

/// Decoders verify the type tag, every field, and full consumption of the
/// payload. On error the out-param may be partially filled; the Status
/// carries the frame type, the payload byte offset where decoding stopped,
/// and what broke.
ser::Status decode_hello(const std::string& payload, HelloMsg* msg);
ser::Status decode_config(const std::string& payload, ConfigMsg* msg);
ser::Status decode_lease(const std::string& payload, LeaseMsg* msg);
ser::Status decode_lease_result(const std::string& payload,
                                LeaseResultMsg* msg);
ser::Status decode_reject(const std::string& payload, RejectMsg* msg);
ser::Status decode_heartbeat(const std::string& payload, HeartbeatMsg* msg);
ser::Status decode_stats_reply(const std::string& payload, StatsReplyMsg* msg);

/// Per-test artifact encoding (shared by result frames; exposed for tests).
void write_artifact(ser::Writer& w, const core::TestArtifact& art);
bool read_artifact(ser::Reader& r, core::TestArtifact& art);

// ---------------------------------------------------------------------------
// FrameChannel: frame transport over one connected stream-socket fd. Writes
// use send(MSG_NOSIGNAL) so a peer death yields a Status error instead of
// SIGPIPE; reads can carry a deadline (poll + partial-read resume) for
// hung-peer detection. Not thread-safe; each side owns its channel.
// ---------------------------------------------------------------------------
class FrameChannel {
 public:
  FrameChannel() = default;
  explicit FrameChannel(int fd) : fd_(fd) {}
  FrameChannel(FrameChannel&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  FrameChannel& operator=(FrameChannel&& o) noexcept;
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;
  ~FrameChannel() { close(); }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Send one complete frame around `payload`. `timeout_ms` < 0 blocks
  /// until the peer drains its socket or dies; otherwise a peer that stops
  /// reading for the whole window turns the stalled send into an error
  /// (the coordinator passes its hung-worker timeout here, so a wedged
  /// worker cannot hang it in send any more than in receive).
  ser::Status send_frame(const std::string& payload, int timeout_ms = -1);

  /// Receive one complete frame's payload. `timeout_ms` < 0 blocks until
  /// the peer delivers or dies; otherwise the whole frame must arrive
  /// within the window. EOF, timeout and corruption all return errors.
  ser::Status recv_frame(std::string* payload, int timeout_ms = -1);

 private:
  int fd_ = -1;
};

}  // namespace chatfuzz::dist
