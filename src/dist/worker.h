// Worker-process entry point of the distributed campaign subsystem. A
// worker is this same binary re-exec'ed as `worker --connect host:port
// [--token t]`: either a local child the coordinator spawned (it dials the
// coordinator's listener back over loopback) or a multi-host fleet member.
// It speaks the dist protocol over one framed TCP channel, builds a pool of
// core::SimStack simulation stacks from the coordinator's Config message,
// and runs each incoming lease through the streaming engine —
// multi-threaded inside the process exactly like the in-process pool —
// shipping back one TestArtifact per test.
//
// Fault tolerance: a transient failure — dropped connection, corrupt
// frame, coordinator restart — sends the worker back into a redial loop
// with capped exponential backoff + jitter; a kReject from the coordinator
// (bad token, version/config mismatch) is fatal and stops the redialing,
// because an incompatible worker never becomes compatible. A spawned child
// also stops redialing once its coordinator is gone (it is no longer the
// child's parent), so local workers die with their coordinator. While
// serving, a background heartbeat thread beats every config.heartbeat_ms
// so the coordinator can tell this process being HUNG (heartbeats flowing,
// no results) from being DEAD (silence).
//
// Determinism: artifacts depend only on (program, campaign seed, global
// test index). The one piece of stack state that could leak between work
// units — the ctrl-reg dedup set — is reset at every lease boundary, so a
// lease produces identical folded results no matter which worker runs it,
// in what order, or after how many reassignments or reconnects.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>

namespace chatfuzz::dist {

struct WorkerOptions {
  /// Auth token sent in the hello; must match the coordinator's token.
  std::string token;
  /// Give up after this many consecutive failed dial/handshake attempts
  /// (the counter resets every time a handshake completes).
  int max_retries = 60;
  /// Spawned children only: the pid of the coordinator that spawned this
  /// process. The redial loop gives up once that process is no longer our
  /// parent. 0 = not spawned by a coordinator (redial until max_retries).
  pid_t coordinator_pid = 0;
};

/// Dial `hostport`, serve leases until shutdown, and redial with capped
/// exponential backoff + jitter on transient failures. Returns the process
/// exit code: 0 on a clean shutdown, 1 when it gives up (retries spent,
/// coordinator gone, bad address), 2 when the coordinator rejected us
/// (diagnostics on stderr). Never throws.
int worker_connect_main(const std::string& hostport, const WorkerOptions& opts);

/// Route a `worker ...` argv into worker_connect_main. A spawned child
/// takes its token and its coordinator's pid from the environment (see
/// kWorkerTokenEnv in dist/transport.h); an explicit --token wins. Call
/// first thing in main() of any binary that wants to serve as its own
/// campaign worker (the CLI, the dist tests, the dist bench); returns the
/// exit code to propagate, or nullopt when the invocation is not a worker.
std::optional<int> maybe_worker_main(int argc, char** argv);

}  // namespace chatfuzz::dist
