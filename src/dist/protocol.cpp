#include "dist/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "core/checkpoint.h"
#include "util/log.h"

namespace chatfuzz::dist {

namespace {

ser::Status proto_error(const char* what) {
  return ser::Status::error(std::string("dist protocol: ") + what);
}

/// Malformed-frame diagnostics carry the frame type, what broke, and WHERE
/// in the payload decoding stopped — a dropped peer's one-line warning then
/// pinpoints the corruption instead of reporting a bare status.
ser::Status decode_error(const char* frame, const ser::Reader& r,
                         const std::string& payload, const char* what) {
  const std::size_t at = payload.size() - r.remaining();
  return ser::Status::error(strformat(
      "dist protocol: %s frame: %s (payload byte %zu of %zu)", frame, what,
      at, payload.size()));
}

/// Payloads all start with the type tag; a decoder first consumes and
/// checks it.
bool take_type(ser::Reader& r, MsgType want) {
  const std::uint8_t t = r.u8();
  if (!r.ok() || t != static_cast<std::uint8_t>(want)) {
    r.fail();
    return false;
  }
  return true;
}

}  // namespace

MsgType peek_type(const std::string& payload) {
  if (payload.empty()) return MsgType::kInvalid;
  const auto t = static_cast<std::uint8_t>(payload[0]);
  if (t < static_cast<std::uint8_t>(MsgType::kHello) ||
      t > static_cast<std::uint8_t>(MsgType::kStatsReply)) {
    return MsgType::kInvalid;
  }
  return static_cast<MsgType>(t);
}

std::uint32_t config_fingerprint(const core::CampaignConfig& cfg) {
  ser::Writer w;
  core::write_campaign_config(w, cfg);
  return ser::crc32(w.buffer().data(), w.buffer().size());
}

std::string encode_hello(const HelloMsg& msg) {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kHello));
  w.u32(msg.protocol);
  w.u64(msg.pid);
  w.u8(msg.role);
  w.str(msg.token);
  return w.take();
}

ser::Status decode_hello(const std::string& payload, HelloMsg* msg) {
  ser::Reader r(payload);
  if (!take_type(r, MsgType::kHello)) {
    return decode_error("hello", r, payload, "wrong type tag");
  }
  msg->protocol = r.u32();
  msg->pid = r.u64();
  msg->role = r.u8();
  msg->token = r.str();
  if (!r.done()) return decode_error("hello", r, payload, "malformed fields");
  return {};
}

std::string encode_config(const ConfigMsg& msg) {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kConfig));
  w.u32(msg.protocol);
  core::write_campaign_config(w, msg.cfg);
  w.boolean(msg.use_suite);
  w.u64(msg.worker_index);
  w.u64(msg.max_lease_tests);
  w.boolean(msg.debug_hang);
  w.boolean(msg.superblocks);
  w.u32(msg.config_crc);
  w.u32(msg.heartbeat_ms);
  return w.take();
}

ser::Status decode_config(const std::string& payload, ConfigMsg* msg) {
  ser::Reader r(payload);
  if (!take_type(r, MsgType::kConfig)) {
    return decode_error("config", r, payload, "wrong type tag");
  }
  msg->protocol = r.u32();
  if (!core::read_campaign_config(r, msg->cfg)) {
    return decode_error("config", r, payload, "malformed campaign config");
  }
  msg->use_suite = r.boolean();
  msg->worker_index = r.u64();
  msg->max_lease_tests = r.u64();
  msg->debug_hang = r.boolean();
  msg->superblocks = r.boolean();
  msg->config_crc = r.u32();
  msg->heartbeat_ms = r.u32();
  if (!r.done()) return decode_error("config", r, payload, "malformed fields");
  return {};
}

std::string encode_lease(const LeaseMsg& msg) {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kLease));
  w.u64(msg.lease_id);
  w.u64(msg.base_index);
  w.u64(msg.tests.size());
  for (const core::Program& p : msg.tests) w.vec_u32(p);
  return w.take();
}

ser::Status decode_lease(const std::string& payload, LeaseMsg* msg) {
  ser::Reader r(payload);
  if (!take_type(r, MsgType::kLease)) {
    return decode_error("lease", r, payload, "wrong type tag");
  }
  msg->lease_id = r.u64();
  msg->base_index = r.u64();
  const std::uint64_t n = r.u64();
  // Every program carries at least its own length prefix.
  if (!r.ok() || n > r.remaining() / 8) {
    return decode_error("lease", r, payload, "test count exceeds payload");
  }
  msg->tests.clear();
  msg->tests.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    msg->tests.push_back(r.vec_u32());
    if (!r.ok()) return decode_error("lease", r, payload, "malformed program");
  }
  if (!r.done()) return decode_error("lease", r, payload, "malformed fields");
  return {};
}

namespace {

/// Metric-bin journals: small indices, journal order (not necessarily
/// sorted — FSM/statement journals are first-hit order), so plain varints
/// rather than gap encoding.
void write_bin_journal(ser::Writer& w, const std::vector<std::size_t>& v) {
  w.varint(v.size());
  for (std::size_t x : v) w.varint(x);
}

bool read_bin_journal(ser::Reader& r, std::vector<std::size_t>& out) {
  out.clear();
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > r.remaining()) {  // >= 1 byte per entry
    r.fail();
    return false;
  }
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::size_t>(r.varint()));
  }
  return r.ok();
}

}  // namespace

void write_artifact(ser::Writer& w, const core::TestArtifact& art) {
  cov::write_bin_deltas(w, art.cond_bins);
  w.vec_u64(art.ctrl_states);
  write_bin_journal(w, art.toggle_bins);
  write_bin_journal(w, art.fsm_bins);
  write_bin_journal(w, art.stmt_bins);
  w.varint(art.cycles);
  w.varint(art.steps);
  mismatch::write_report_summary(w, art.report);
}

bool read_artifact(ser::Reader& r, core::TestArtifact& art) {
  art.begin();
  if (!cov::read_bin_deltas(r, art.cond_bins)) return false;
  art.ctrl_states = r.vec_u64();
  if (!read_bin_journal(r, art.toggle_bins) ||
      !read_bin_journal(r, art.fsm_bins) ||
      !read_bin_journal(r, art.stmt_bins)) {
    return false;
  }
  art.cycles = r.varint();
  art.steps = r.varint();
  if (!r.ok()) return false;
  return mismatch::read_report_summary(r, art.report);
}

std::string encode_lease_result(const LeaseResultMsg& msg) {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kLeaseResult));
  w.u64(msg.lease_id);
  w.u64(msg.artifacts.size());
  for (const core::TestArtifact& art : msg.artifacts) write_artifact(w, art);
  return w.take();
}

ser::Status decode_lease_result(const std::string& payload,
                                LeaseResultMsg* msg) {
  ser::Reader r(payload);
  if (!take_type(r, MsgType::kLeaseResult)) {
    return decode_error("lease-result", r, payload, "wrong type tag");
  }
  msg->lease_id = r.u64();
  const std::uint64_t n = r.u64();
  // An artifact is never smaller than its fixed-width fields (~16 bytes of
  // length prefixes and counters).
  if (!r.ok() || n > r.remaining() / 16) {
    return decode_error("lease-result", r, payload,
                        "artifact count exceeds payload");
  }
  msg->artifacts.clear();
  msg->artifacts.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!read_artifact(r, msg->artifacts[i])) {
      return decode_error("lease-result", r, payload, "malformed artifact");
    }
  }
  if (!r.done()) {
    return decode_error("lease-result", r, payload, "malformed fields");
  }
  return {};
}

std::string encode_shutdown() {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kShutdown));
  return w.take();
}

std::string encode_reject(const RejectMsg& msg) {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kReject));
  w.str(msg.reason);
  return w.take();
}

ser::Status decode_reject(const std::string& payload, RejectMsg* msg) {
  ser::Reader r(payload);
  if (!take_type(r, MsgType::kReject)) {
    return decode_error("reject", r, payload, "wrong type tag");
  }
  msg->reason = r.str();
  if (!r.done()) return decode_error("reject", r, payload, "malformed fields");
  return {};
}

std::string encode_heartbeat(const HeartbeatMsg& msg) {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kHeartbeat));
  w.u64(msg.served);
  return w.take();
}

ser::Status decode_heartbeat(const std::string& payload, HeartbeatMsg* msg) {
  ser::Reader r(payload);
  if (!take_type(r, MsgType::kHeartbeat)) {
    return decode_error("heartbeat", r, payload, "wrong type tag");
  }
  msg->served = r.u64();
  if (!r.done()) {
    return decode_error("heartbeat", r, payload, "malformed fields");
  }
  return {};
}

std::string encode_stats_request() {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kStatsRequest));
  return w.take();
}

std::string encode_stats_reply(const StatsReplyMsg& msg) {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kStatsReply));
  w.u64(msg.metrics.size());
  for (const auto& [name, value] : msg.metrics) {
    w.str(name);
    w.f64(value);
  }
  w.u64(msg.peers.size());
  for (const PeerStatusEntry& p : msg.peers) {
    w.u64(p.pid);
    w.boolean(p.alive);
    w.boolean(p.demoted);
    w.u32(p.leases_held);
    w.u64(p.results);
    w.u64(p.heartbeat_age_ms);
  }
  return w.take();
}

ser::Status decode_stats_reply(const std::string& payload,
                               StatsReplyMsg* msg) {
  ser::Reader r(payload);
  if (!take_type(r, MsgType::kStatsReply)) {
    return decode_error("stats-reply", r, payload, "wrong type tag");
  }
  const std::uint64_t nm = r.u64();
  // Each metric carries at least a length prefix and an f64.
  if (!r.ok() || nm > r.remaining() / 9) {
    return decode_error("stats-reply", r, payload,
                        "metric count exceeds payload");
  }
  msg->metrics.clear();
  msg->metrics.reserve(nm);
  for (std::uint64_t i = 0; i < nm; ++i) {
    std::string name = r.str();
    const double value = r.f64();
    if (!r.ok()) {
      return decode_error("stats-reply", r, payload, "malformed metric");
    }
    msg->metrics.emplace_back(std::move(name), value);
  }
  const std::uint64_t np = r.u64();
  if (!r.ok() || np > r.remaining() / 24) {
    return decode_error("stats-reply", r, payload,
                        "peer count exceeds payload");
  }
  msg->peers.clear();
  msg->peers.reserve(np);
  for (std::uint64_t i = 0; i < np; ++i) {
    PeerStatusEntry p;
    p.pid = r.u64();
    p.alive = r.boolean();
    p.demoted = r.boolean();
    p.leases_held = r.u32();
    p.results = r.u64();
    p.heartbeat_age_ms = r.u64();
    if (!r.ok()) {
      return decode_error("stats-reply", r, payload, "malformed peer entry");
    }
    msg->peers.push_back(p);
  }
  if (!r.done()) {
    return decode_error("stats-reply", r, payload, "malformed fields");
  }
  return {};
}

// ---------------------------------------------------------------------------
// FrameChannel
// ---------------------------------------------------------------------------

FrameChannel& FrameChannel::operator=(FrameChannel&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void FrameChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ser::Status FrameChannel::send_frame(const std::string& payload,
                                     int timeout_ms) {
  if (fd_ < 0) return proto_error("send on closed channel");
  if (payload.size() > kMaxFramePayload) {
    return proto_error("frame payload exceeds the size limit");
  }
  ser::Writer header;
  header.u32(kFrameMagic);
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u32(ser::crc32(payload.data(), payload.size()));
  const std::string& head = header.buffer();

  std::chrono::steady_clock::time_point deadline;
  const bool bounded = timeout_ms >= 0;
  if (bounded) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(timeout_ms);
  }
  // MSG_DONTWAIT keeps each send nonblocking regardless of fd flags (the
  // read side stays blocking); a full buffer parks in poll(POLLOUT) with
  // the remaining window instead of wedging in the kernel.
  const char* error = nullptr;
  const auto send_all = [&](const char* data, std::size_t size) -> bool {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t n = ::send(fd_, data + off, size - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
        int wait_ms = -1;
        if (bounded) {
          const auto left =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - std::chrono::steady_clock::now());
          if (left.count() <= 0) {
            error = "send timed out (peer not draining)";
            return false;
          }
          wait_ms = static_cast<int>(left.count());
        }
        struct pollfd pfd{fd_, POLLOUT, 0};
        const int pr = ::poll(&pfd, 1, wait_ms);
        if (pr < 0 && errno != EINTR) return false;
        if (pr == 0) {
          error = "send timed out (peer not draining)";
          return false;
        }
        continue;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  };
  if (!send_all(head.data(), head.size()) ||
      !send_all(payload.data(), payload.size())) {
    if (error != nullptr) return proto_error(error);
    return ser::Status::error(std::string("dist protocol: send failed: ") +
                              std::strerror(errno));
  }
  return {};
}

namespace {

/// Read exactly `size` bytes before `deadline` (or block forever when the
/// caller passed no timeout). Partial reads resume; EOF/error/timeout fail.
ser::Status read_exact(int fd, char* out, std::size_t size,
                       const std::chrono::steady_clock::time_point* deadline) {
  std::size_t off = 0;
  while (off < size) {
    int wait_ms = -1;
    if (deadline != nullptr) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return ser::Status::error(strformat(
            "dist protocol: receive timed out (%zu of %zu bytes)", off, size));
      }
      wait_ms = static_cast<int>(remaining.count());
    }
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return ser::Status::error(std::string("dist protocol: poll failed: ") +
                                std::strerror(errno));
    }
    if (pr == 0) {
      return ser::Status::error(strformat(
          "dist protocol: receive timed out (%zu of %zu bytes)", off, size));
    }
    const ssize_t n = ::read(fd, out + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ser::Status::error(
          strformat("dist protocol: read failed at byte %zu of %zu: %s", off,
                    size, std::strerror(errno)));
    }
    if (n == 0) {
      return ser::Status::error(strformat(
          "dist protocol: peer closed the channel mid-frame "
          "(%zu of %zu bytes)", off, size));
    }
    off += static_cast<std::size_t>(n);
  }
  return {};
}

}  // namespace

ser::Status FrameChannel::recv_frame(std::string* payload, int timeout_ms) {
  if (fd_ < 0) return proto_error("receive on closed channel");
  std::chrono::steady_clock::time_point deadline;
  const std::chrono::steady_clock::time_point* dl = nullptr;
  if (timeout_ms >= 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(timeout_ms);
    dl = &deadline;
  }
  char head[12];
  ser::Status s = read_exact(fd_, head, sizeof head, dl);
  if (!s.ok()) return s;
  ser::Reader hr(std::string_view(head, sizeof head));
  const std::uint32_t magic = hr.u32();
  const std::uint32_t len = hr.u32();
  const std::uint32_t crc = hr.u32();
  if (magic != kFrameMagic) return proto_error("bad frame magic");
  if (len > kMaxFramePayload) {
    return proto_error("frame length prefix exceeds the size limit");
  }
  payload->resize(len);
  s = read_exact(fd_, payload->data(), len, dl);
  if (!s.ok()) return s;
  if (ser::crc32(payload->data(), payload->size()) != crc) {
    return proto_error("frame CRC mismatch");
  }
  return {};
}

}  // namespace chatfuzz::dist
