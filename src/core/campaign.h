// Campaign runner: drives any InputGenerator through the full fuzzing loop
// of Fig. 1a — generate a batch, co-simulate each test on the DUT model and
// the golden model, compute the Coverage Calculator's per-test values, diff
// the traces through the Mismatch Detector, and feed coverage back to the
// generator. Produces the coverage-vs-tests/time curves and mismatch
// statistics every table and figure in §V is built from.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "core/generator.h"
#include "coverage/cover.h"
#include "coverage/merge.h"
#include "isasim/platform.h"
#include "mismatch/detect.h"
#include "rtlsim/config.h"

namespace chatfuzz::core {

/// Which coverage metric fills the Feedback the generator learns from. The
/// campaign always *reports* condition coverage (the paper's ground truth);
/// this selects the guidance signal, enabling the feedback-metric ablation
/// (condition vs. toggle vs. statement vs. FSM vs. control-register).
enum class GuidanceMetric { kCondition, kToggle, kStatement, kFsm, kCtrlReg };

const char* guidance_name(GuidanceMetric m);

/// Seeded wire-fault injection (consumed by dist::FaultyChannel): per-frame
/// probabilities of hostile-network events, in 1/1024 units. `seed` = 0
/// disables injection entirely; otherwise each peer channel draws its fault
/// decisions from an Rng forked from the campaign seed and the channel's
/// connection ordinal, so a given schedule is reproducible. The campaign
/// result must be bit-identical to a clean run under ANY schedule — that is
/// the property the `dist_fault` suite soaks. Tests/CI only.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Total injection budget across the whole campaign: once spent, every
  /// channel behaves cleanly, so a schedule always terminates instead of
  /// eroding the fleet forever.
  std::uint32_t max_faults = 32;
  std::uint32_t p_drop = 0;       // close the connection mid-frame
  std::uint32_t p_truncate = 0;   // deliver a partial frame, then close
  std::uint32_t p_corrupt = 0;    // flip one payload byte (CRC catches it)
  std::uint32_t p_wrong_crc = 0;  // byzantine: intact payload, forged CRC
  std::uint32_t p_duplicate = 0;  // deliver the frame twice
  std::uint32_t p_delay = 0;      // hold the frame a few ms
  std::uint32_t p_handshake = 0;  // fail the first exchange on a channel
  bool any() const {
    return seed != 0 && (p_drop | p_truncate | p_corrupt | p_wrong_crc |
                         p_duplicate | p_delay | p_handshake) != 0;
  }
};

/// Multi-process fan-out (src/dist/): the coordinator re-execs this binary
/// as `worker --connect` children that dial its TCP listener back, hands
/// out fixed-size test-index ranges of every batch as leases over a framed
/// wire protocol, and folds the returned
/// per-test artifacts in canonical order — so the campaign output is
/// bit-identical to the in-process engine for any process count, worker
/// thread count and lease schedule. Scheduling only; never persisted in
/// checkpoints (a resumed campaign picks its own topology).
struct DistConfig {
  /// Worker processes. <= 1 runs the in-process engine (no processes are
  /// spawned); the coordinator itself only folds, it never simulates.
  std::size_t num_procs = 1;

  /// Tests per lease. 0 picks ceil(batch_size / (2 * num_procs)), clamped
  /// to [1, batch_size]: at least two leases per worker per batch, so a
  /// lost worker's outstanding work re-issues at useful granularity.
  std::size_t lease_tests = 0;

  /// Binary to re-exec for workers. Empty = /proc/self/exe (the normal
  /// case: any binary that routes a "worker --connect" argv through
  /// dist::maybe_worker_main can be its own worker).
  std::string worker_exe;

  /// Drop a worker that has held leases without delivering a result for
  /// this long (hung-worker detection); its outstanding leases re-issue to
  /// survivors. 0 = wait forever (a dead worker is still detected
  /// immediately via EOF on its socket).
  std::uint32_t lease_timeout_ms = 0;

  // ---- TCP transport -----------------------------------------------------
  /// "host:port" the coordinator listens on. Empty = an ephemeral port on
  /// 127.0.0.1, for the local children alone. The num_procs local children
  /// always dial the listener back over loopback as `worker --connect`;
  /// with an address set, remote `chatfuzz worker --connect <addr> --token`
  /// processes can join — or rejoin after a failure — at any time, and
  /// num_procs may be 0 (external dial-ins only). Port 0 binds an ephemeral
  /// port (see port_file).
  std::string listen;
  /// Shared secret for the protocol-v4 handshake: a worker whose hello
  /// carries a different token is rejected before any campaign state flows.
  /// Spawned children receive it through their environment, never argv.
  /// Empty with `listen` set = no authentication (trusted networks); empty
  /// without it = a fresh random token per campaign, so only the spawned
  /// children get in.
  std::string token;
  /// When set, the coordinator writes the actually-bound "host:port\n" here
  /// after listen() — how tests and scripts discover an ephemeral port.
  std::string port_file;
  /// Worker heartbeat period (0 = off). Heartbeats let the coordinator
  /// tell a DEAD/unreachable peer (silence) from a HUNG one (heartbeats
  /// flowing, leases never completing): the two are dropped through
  /// different timeouts and counted separately.
  std::uint32_t heartbeat_ms = 250;
  /// Silence window before a peer is declared dead. 0 = 8 * heartbeat_ms.
  std::uint32_t heartbeat_timeout_ms = 0;
  /// When every peer has been lost, wait this long for a reconnect before
  /// failing the campaign (workers redial with capped exponential backoff,
  /// so a transient total outage heals itself). Skipped at start-up when
  /// every spawned child has already exited.
  std::uint32_t reconnect_wait_ms = 10'000;

  // ---- fault injection (tests / CI only) ---------------------------------
  /// Wire-level fault injection on every coordinator<->worker channel.
  FaultPlan fault;
  /// SIGKILL worker `debug_kill_worker` once `debug_kill_after_results`
  /// lease results have been folded — the worker-kill determinism case.
  std::size_t debug_kill_worker = static_cast<std::size_t>(-1);
  std::size_t debug_kill_after_results = 0;
  /// Tell worker `debug_hang_worker` to stall forever on its first lease —
  /// the hung-worker (timeout + reassignment) case.
  std::size_t debug_hang_worker = static_cast<std::size_t>(-1);
};

struct CampaignConfig {
  std::size_t num_tests = 1800;   // paper's headline comparison point
  std::size_t batch_size = 32;
  std::size_t checkpoint_every = 100;  // tests between curve points
  rtl::CoreConfig core = rtl::CoreConfig::rocket();

  /// Multi-DUT differential mode (`fuzz --dut inorder,ooo`): every generated
  /// test runs once per config in this list against the same golden model,
  /// and the per-DUT coverage/mismatch contributions fold into one
  /// TestArtifact in list order — so multi-DUT campaign output is
  /// bit-identical for any workers × procs × resume topology, exactly like
  /// single-DUT output. Empty (the default) means {core}: the single-DUT
  /// campaign everything else in the repo runs. When non-empty, the first
  /// entry is the *primary* DUT (metrics suite, step totals); `core` is
  /// ignored. Replay and minimize (core/replay.h) run the
  /// whole list, as the campaign does. Part of the campaign state:
  /// serialized into checkpoints, never overridden on resume (the coverage
  /// DB layout is the concatenation of every DUT's instrumentation).
  std::vector<rtl::CoreConfig> duts;

  sim::Platform platform{.max_steps = 512};
  bool mismatch_detection = true;
  GuidanceMetric guidance = GuidanceMetric::kCondition;
  /// Attach the toggle/FSM/statement suite even when guidance is condition
  /// coverage, so the result reports all metric percentages.
  bool collect_multi_metrics = false;

  /// Wall-clock scale model (README, "What stands in for the paper's
  /// setup"): the paper reports ~1.8K tests in ~52 min on ten VCS
  /// instances for both ChatFuzz and TheHuzz, i.e. ~2077 tests/hour; a
  /// generator's time_per_test_factor() scales this.
  double tests_per_hour = 2077.0;

  /// Simulation worker threads (the paper's "ten parallel VCS instances",
  /// for real this time). Each worker owns a private DUT model, golden
  /// model and coverage shard; every batch is split across the pool and the
  /// per-test results are folded back in canonical test order, so campaign
  /// output is bit-identical for ANY worker count — including 1, which runs
  /// inline on the calling thread. 0 means hardware concurrency.
  std::size_t num_workers = 1;

  /// Harness seed for per-test RNG streams (see Rng::fork): every stochastic
  /// per-test decision is keyed by campaign seed + global test index, never
  /// by thread identity, which is what keeps shuffled schedules bit-exact.
  std::uint64_t seed = 1;

  /// Give every test a distinct deterministic initial register file derived
  /// from `seed` + test index (instead of one fixed file for the whole
  /// campaign). Off by default to preserve the paper harness's behavior.
  bool randomize_regs = false;

  /// Superblock dispatch in both simulators (`fuzz --no-superblocks` turns
  /// it off). Purely a speed knob — every campaign artifact (report,
  /// coverage DB, mismatch DB, corpus store) is bit-identical either way,
  /// which the determinism suite pins. Never serialized into checkpoints:
  /// like worker count it is per-run scheduling, and the span caches are
  /// derived state that must not enter snapshots.
  bool superblocks = true;

  // ---- persistence (checkpoint/resume) -------------------------------------
  /// When non-empty, the campaign becomes durable: interesting tests (new
  /// coverage or a mismatch) are archived to <dir>/corpus/ and the full
  /// campaign state is snapshotted to <dir>/campaign.ckpt, from which
  /// resume_campaign() continues bit-identically to an uninterrupted run.
  /// Requires a generator with supports_snapshot().
  std::string checkpoint_dir;

  /// Tests between state snapshots. Snapshots land on the first batch
  /// boundary at/after each multiple (the generator's feedback is per
  /// batch, so batch boundaries are the consistent cut points). 0 writes a
  /// snapshot only at campaign end.
  std::size_t checkpoint_every_tests = 0;

  /// Pause the campaign once this many tests have run (0 = run to
  /// num_tests): the engine finishes the in-flight batch, writes a
  /// checkpoint, and returns a partial result with completed=false.
  /// Batch sizing still follows num_tests, so a paused+resumed campaign
  /// replays the exact schedule of an uninterrupted one. This is the
  /// time-boxed-segment workflow and the resume-determinism test harness.
  std::size_t stop_after_tests = 0;

  /// Multi-process topology (`fuzz --procs`). Like num_workers this is pure
  /// scheduling: results are bit-identical whether a campaign runs in one
  /// process or across many.
  DistConfig dist;

  // ---- telemetry (src/obs/) ------------------------------------------------
  /// When non-empty, record scoped spans for the whole run and export them
  /// as Chrome trace_event JSON here (`fuzz --trace`). Observation-only and
  /// out-of-band by contract: every campaign artifact is byte-identical with
  /// tracing on or off (the `obs` suite pins this). Like checkpoint_dir
  /// these are per-run output paths — never serialized into checkpoints, so enabling
  /// telemetry cannot perturb checkpoint bytes or config fingerprints.
  std::string trace_path;
  /// When non-empty, snapshot the obs metrics registry to this NDJSON file
  /// at batch boundaries (`fuzz --stats`), at most every stats_every_ms,
  /// plus one final line. Same out-of-band contract as trace_path.
  std::string stats_path;
  /// Minimum milliseconds between NDJSON snapshots (0 = every batch).
  std::uint64_t stats_every_ms = 1000;
};

/// The DUT configs a campaign actually simulates: `cfg.duts` when set,
/// otherwise the single-DUT list {cfg.core}. Every layer that must agree on
/// the coverage-DB layout (worker stacks, coordinator registrar, dist
/// workers, benches) builds its cores from this list in this order.
std::vector<rtl::CoreConfig> effective_duts(const CampaignConfig& cfg);

struct CampaignPoint {
  std::size_t tests = 0;
  double hours = 0.0;             // paper-equivalent wall-clock
  double cond_cov_percent = 0.0;  // cumulative condition coverage
  std::size_t ctrl_states = 0;    // DifuzzRTL-style metric, for reference
};

struct CampaignResult {
  std::string fuzzer;
  std::vector<CampaignPoint> curve;
  double final_cov_percent = 0.0;
  std::size_t tests_run = 0;
  double hours = 0.0;
  std::uint64_t total_cycles = 0;
  std::uint64_t total_instrs = 0;

  /// Points with at least one uncovered bin at campaign end — the
  /// verification-engineer view of what remains.
  std::vector<cov::UncoveredPoint> uncovered;

  // Multi-metric rollup (populated when the metric suite was attached).
  double toggle_percent = 0.0;
  double fsm_percent = 0.0;
  double statement_percent = 0.0;

  // Mismatch statistics (§V-B).
  std::size_t raw_mismatches = 0;
  std::size_t filtered_mismatches = 0;
  std::size_t unique_mismatches = 0;
  std::set<mismatch::Finding> findings;

  /// False when the campaign paused at stop_after_tests instead of running
  /// to num_tests (the checkpoint written at the pause point resumes it).
  bool completed = true;

  /// First paper-equivalent hour at which the curve crossed `percent`
  /// condition coverage, or a negative value if it never did.
  double hours_to(double percent) const;
  /// First test count crossing `percent`, or 0 if never.
  std::size_t tests_to(double percent) const;
};

/// Optional per-checkpoint observer (benches print progressive rows).
using CheckpointHook = std::function<void(const CampaignPoint&)>;

/// Cooperative graceful drain. request_drain() is async-signal-safe (the
/// CLI's SIGTERM handler calls it); the engine notices at the next batch
/// boundary — which is always a lease boundary — writes a checkpoint when
/// persistence is on, tears the worker fleet down cleanly (no orphaned
/// processes), and returns with result.completed = false, exactly like a
/// stop_after_tests pause. A later resume continues bit-identically to an
/// uninterrupted run. The flag is process-wide; clear_drain() resets it
/// (run_campaign does NOT reset it on entry, so a drain requested between
/// campaigns still stops the next one immediately after its first batch).
void request_drain();
bool drain_requested();
void clear_drain();

CampaignResult run_campaign(InputGenerator& gen, const CampaignConfig& cfg,
                            CheckpointHook hook = nullptr);

/// Resume knobs that may legitimately differ from the interrupted run.
/// Worker count is scheduling, not semantics — resuming a 1-worker campaign
/// with 4 workers still reproduces its bytes exactly.
struct ResumeOptions {
  std::size_t num_workers = 0;      // 0 = value stored in the checkpoint
  std::size_t stop_after_tests = 0; // 0 = run to the stored num_tests
  /// Process topology for the resumed run. Checkpoints never store one
  /// (scheduling, not semantics), so the default resumes in-process.
  DistConfig dist;
  /// Superblock dispatch for the resumed run (scheduling, not semantics —
  /// never stored; results are bit-identical either way).
  bool superblocks = true;
  /// Telemetry outputs for the resumed run — per-run observation paths
  /// (checkpoints never store them).
  std::string trace_path;
  std::string stats_path;
  std::uint64_t stats_every_ms = 1000;
};

/// Continue a campaign from <dir>/campaign.ckpt. `gen` must be a
/// same-configured instance of the generator the campaign started with
/// (validated by name); its state is restored from the checkpoint before
/// any batch is requested. Workers are reconstructed from scratch — their
/// per-test state is derived, not persisted. Throws std::runtime_error on a
/// missing/corrupt/mismatched checkpoint.
CampaignResult resume_campaign(InputGenerator& gen, const std::string& dir,
                               const ResumeOptions& opts = {},
                               CheckpointHook hook = nullptr);

/// Inspect a checkpoint without running: the stored generator kind and
/// campaign configuration (the CLI uses this to rebuild the right fuzzer).
ser::Status peek_checkpoint(const std::string& dir, std::string* fuzzer,
                            CampaignConfig* cfg);

}  // namespace chatfuzz::core
