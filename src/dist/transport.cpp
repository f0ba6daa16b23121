#include "dist/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "util/log.h"

extern char** environ;

namespace chatfuzz::dist {

namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// How long Transport::start() waits for its own spawned children to dial
/// back over loopback. Covers exec + library init, same rationale as the
/// coordinator's handshake window.
constexpr std::int64_t kLoopbackDialWindowMs = 60'000;
/// Poll slice of that wait: how soon a child that exited without dialing
/// is noticed.
constexpr std::int64_t kChildPollMs = 50;

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

void tune_stream_socket(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Keepalive is the worker's dead-coordinator detector: frame reads block
  // across batch-boundary gaps of unbounded length, so a recv timeout
  // cannot distinguish "idle" from "gone" — the TCP stack can.
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
#ifdef TCP_KEEPIDLE
  int secs = 15;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &secs, sizeof(secs));
  secs = 5;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &secs, sizeof(secs));
  int probes = 3;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &probes, sizeof(probes));
#endif
}

bool resolve_ipv4(const std::string& host, in_addr* out) {
  if (host.empty()) {
    out->s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (host == "localhost") {
    out->s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), out) == 1;
}

/// Bind+listen; returns the fd (CLOEXEC, SO_REUSEADDR, nonblocking accepts)
/// or -1 with *err set.
int tcp_listen(const HostPort& hp, std::string* err) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hp.port);
  if (!resolve_ipv4(hp.host, &addr.sin_addr)) {
    if (err != nullptr) *err = "cannot resolve host '" + hp.host + "'";
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err != nullptr) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  set_cloexec(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    if (err != nullptr) {
      *err = "cannot listen on " + hp.host + ":" + std::to_string(hp.port) +
             ": " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  // Nonblocking so accept_peer() never stalls the coordinator's poll loop.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// The locally bound port of a listening fd (resolves an ephemeral :0).
std::uint16_t bound_port(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

}  // namespace

std::optional<HostPort> parse_hostport(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon + 1 == s.size()) return std::nullopt;
  HostPort hp;
  hp.host = s.substr(0, colon);
  const std::string port_str = s.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) return std::nullopt;
  hp.port = static_cast<std::uint16_t>(port);
  in_addr dummy;
  if (!resolve_ipv4(hp.host, &dummy)) return std::nullopt;
  return hp;
}

int tcp_connect(const HostPort& hp, int timeout_ms, std::string* err) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hp.port);
  if (!resolve_ipv4(hp.host, &addr.sin_addr)) {
    if (err != nullptr) *err = "cannot resolve host '" + hp.host + "'";
    return -1;
  }
  if (addr.sin_addr.s_addr == htonl(INADDR_ANY)) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err != nullptr) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  set_cloexec(fd);
  // Nonblocking connect + poll, so a black-holed listener costs timeout_ms
  // instead of the kernel's multi-minute SYN retry budget.
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, timeout_ms < 0 ? -1 : timeout_ms);
    if (rc <= 0) {
      if (err != nullptr) {
        *err = rc == 0 ? "connect timed out"
                       : std::string("poll: ") + std::strerror(errno);
      }
      ::close(fd);
      return -1;
    }
    int so_err = 0;
    socklen_t len = sizeof(so_err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err, &len);
    if (so_err != 0) {
      if (err != nullptr) {
        *err = std::string("connect: ") + std::strerror(so_err);
      }
      ::close(fd);
      return -1;
    }
  } else if (rc != 0) {
    if (err != nullptr) *err = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for frame I/O
  tune_stream_socket(fd);
  return fd;
}

// ---- Transport -----------------------------------------------------------

Transport::Transport(const core::CampaignConfig& cfg)
    : num_procs_(std::min<std::size_t>(cfg.dist.num_procs, 64)),
      worker_exe_(cfg.dist.worker_exe.empty() ? std::string("/proc/self/exe")
                                              : cfg.dist.worker_exe),
      token_(cfg.dist.token) {
  const std::string listen =
      cfg.dist.listen.empty() ? std::string("127.0.0.1:0") : cfg.dist.listen;
  const auto hp = parse_hostport(listen);
  if (!hp) {
    throw std::runtime_error("dist transport: bad --listen address '" +
                             listen + "' (want host:port)");
  }
  std::string err;
  listen_fd_ = tcp_listen(*hp, &err);
  if (listen_fd_ < 0) {
    throw std::runtime_error("dist transport: " + err);
  }
  port_ = hp->port != 0 ? hp->port : bound_port(listen_fd_);
  if (!cfg.dist.port_file.empty()) {
    // Ephemeral-port discovery for tests and scripts: the dial-able
    // address, one line, written only after listen() succeeded.
    const std::string host =
        (hp->host.empty() || hp->host == "0.0.0.0") ? "127.0.0.1" : hp->host;
    std::ofstream out(cfg.dist.port_file, std::ios::trunc);
    out << host << ":" << port_ << "\n";
  }
  LOG_INFO("dist transport: listening on %s:%u",
           hp->host.empty() ? "0.0.0.0" : hp->host.c_str(),
           static_cast<unsigned>(port_));
}

Transport::~Transport() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Transport::spawn_child() {
  const std::string connect_arg = "127.0.0.1:" + std::to_string(port_);
  char* argv[] = {const_cast<char*>(worker_exe_.c_str()),
                  const_cast<char*>("worker"), const_cast<char*>("--connect"),
                  const_cast<char*>(connect_arg.c_str()), nullptr};
  // Our environment minus any inherited spawn variables, plus this
  // coordinator's: the token must stay out of argv, and the pid lets the
  // child tell its coordinator's death from a transient disconnect.
  const std::string token_var = std::string(kWorkerTokenEnv) + "=";
  const std::string pid_var = std::string(kCoordinatorPidEnv) + "=";
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view var(*e);
    if (!var.starts_with(token_var) && !var.starts_with(pid_var)) {
      envp.push_back(*e);
    }
  }
  const std::string token_def = token_var + token_;
  const std::string pid_def = pid_var + std::to_string(::getpid());
  if (!token_.empty()) envp.push_back(const_cast<char*>(token_def.c_str()));
  envp.push_back(const_cast<char*>(pid_def.c_str()));
  envp.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, worker_exe_.c_str(), nullptr, nullptr,
                               argv, envp.data());
  if (rc != 0) {
    LOG_ERROR("dist transport: cannot spawn %s: %s", worker_exe_.c_str(),
              std::strerror(rc));
    return;
  }
  children_.push_back(pid);
}

std::size_t Transport::running_children() {
  // waitpid < 0 (ECHILD): somebody else already reaped it — gone as well.
  std::erase_if(children_, [](pid_t pid) {
    return ::waitpid(pid, nullptr, WNOHANG) != 0;
  });
  return children_.size();
}

bool Transport::children_gone() {
  return num_procs_ > 0 && running_children() == 0;
}

std::vector<std::unique_ptr<Channel>> Transport::start() {
  for (std::size_t i = 0; i < num_procs_; ++i) spawn_child();
  // Collect the children's dial-ins, in short polls so a child that exits
  // without dialing (bad worker_exe, crash at start-up) ends the wait
  // instead of costing the whole window. A child that dialed and then
  // exited counts twice, so this can return early; whoever is still on the
  // way joins through accept_peer(). With num_procs == 0 nothing is awaited
  // here: the coordinator waits for external dial-ins itself.
  std::vector<std::unique_ptr<Channel>> peers;
  const std::int64_t deadline = now_ms() + kLoopbackDialWindowMs;
  while (peers.size() < running_children() && now_ms() < deadline) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    const std::int64_t left = deadline - now_ms();
    if (::poll(&pfd, 1, static_cast<int>(std::clamp<std::int64_t>(
                            left, 0, kChildPollMs))) > 0) {
      if (auto chan = accept_peer()) peers.push_back(std::move(chan));
    }
  }
  return peers;
}

std::unique_ptr<Channel> Transport::accept_peer() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return nullptr;
  set_cloexec(fd);
  // accept() on Linux inherits O_NONBLOCK on some paths; frame I/O wants
  // blocking semantics with its own poll-based deadlines.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  tune_stream_socket(fd);
  return std::make_unique<SocketChannel>(fd);
}

void Transport::reap_children(int grace_ms) {
  const std::int64_t deadline = now_ms() + grace_ms;
  while (running_children() > 0 && now_ms() < deadline) ::usleep(100'000);
  for (const pid_t pid : children_) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  children_.clear();
}

}  // namespace chatfuzz::dist
