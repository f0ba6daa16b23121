// The repository benchmark: runs one fuzzing workload per process through
// the public core::run_campaign API and prints its metrics (README.md has
// the definitions). Normally started through run.sh, which builds this
// binary first:
//
//   chatfuzz_benchmark --workload <name> [--seed N] [--seconds N]
//                      [--trace 0|1] [--smoke] [--out-dir DIR] [--commit ID]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// repeats the workload with the program's spans exported and breaks its
// time down by layer. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mutational.h"
#include "bench.h"
#include "dist/worker.h"
#include "obs/trace.h"
#include "util/rng.h"

using namespace chatfuzz;
using bench::Clock;
using bench::median;
using bench::Metrics;
using bench::seconds_since;

namespace {

/// Set-up + campaign rounds per run (one in --smoke runs).
constexpr int kRounds = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "build-benchmark/artifacts";
  std::string commit = "unknown";
};

/// A workload: its campaign configuration and how its generator is built.
struct Workload {
  std::string name;
  core::CampaignConfig cfg;
  std::size_t instances = 0;  // TheHuzz instances; 0 = the ChatFuzz generator
  /// ChatFuzz generator config; its model shape also sets the ML probes.
  core::ChatFuzzConfig chatfuzz;
  double cov_target = 0;          // time-to-coverage target, in percent
  std::size_t replay_stride = 1;  // the traced run replays every n-th test

  /// ChatFuzz rounds each train their own model at their own seed, which
  /// averages out how much a trained model's programs differ between
  /// seeds. TheHuzz rounds repeat the run seed's campaign exactly.
  bool repeats_rounds() const { return instances > 0; }
  std::uint64_t round_seed(int round) const {
    if (repeats_rounds() || round == 0) return cfg.seed;
    return Rng(cfg.seed).fork(static_cast<std::uint64_t>(round)).next_u64();
  }
  core::CampaignConfig config_at(std::uint64_t seed) const {
    core::CampaignConfig c = cfg;
    c.seed = seed;
    return c;
  }
};

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  core::CampaignConfig& c = w.cfg;
  c.batch_size = 32;
  c.checkpoint_every = 32;  // one curve point, and one hook stamp, per batch
  c.num_workers = 1;
  c.seed = seed;
  w.chatfuzz.pretrain_samples = 600;
  w.chatfuzz.pretrain.epochs = 1;
  w.chatfuzz.cleanup_iters = 4;
  // Smoke budgets are 1/50 of the full ones, rounded up to whole batches.
  const auto budget = [&](std::size_t full) {
    if (!smoke) return full;
    return (full / 50 + c.batch_size - 1) / c.batch_size * c.batch_size;
  };
  if (name == "chatfuzz") {
    c.num_tests = budget(256);
    w.cov_target = 66.0;
    return w;
  }
  w.instances = 512;
  w.cov_target = 75.0;
  w.replay_stride = 16;
  if (name == "thehuzz" || name == "thehuzz_procs2") {
    c.num_tests = budget(131072);
    if (name == "thehuzz_procs2") c.dist.num_procs = 2;
    return w;
  }
  if (name == "thehuzz_2dut") {
    c.num_tests = budget(81920);
    c.duts = {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()};
    return w;
  }
  return std::nullopt;
}

/// TheHuzz run as `n` independent fuzzer instances feeding one campaign:
/// batch k comes from instance k mod n, and its feedback goes back to that
/// instance. A single long TheHuzz campaign makes a poor benchmark input:
/// its corpus can lock onto looping programs, so its cost per test varies
/// several-fold from seed to seed. Many short-lived instances average that
/// out, like the paper's parallel simulator instances.
class TheHuzzFleet final : public core::InputGenerator {
 public:
  TheHuzzFleet(std::uint64_t seed, std::size_t n) {
    const Rng root(seed);
    for (std::size_t i = 0; i < n; ++i) {
      fuzzers_.push_back(
          std::make_unique<baselines::TheHuzzFuzzer>(root.fork(i).next_u64()));
    }
  }
  std::string name() const override { return "TheHuzz"; }
  std::vector<core::Program> next_batch(std::size_t n) override {
    active_ = next_;
    next_ = (next_ + 1) % fuzzers_.size();
    return fuzzers_[active_]->next_batch(n);
  }
  void feedback(const core::Feedback& fb) override {
    fuzzers_[active_]->feedback(fb);
  }

 private:
  std::vector<std::unique_ptr<baselines::TheHuzzFuzzer>> fuzzers_;
  std::size_t active_ = 0, next_ = 0;
};

/// The traced run's generator: delegates to the real one, times
/// next_batch and feedback, counts tests that added coverage, and keeps
/// every `stride`-th program for the per-layer replay.
class TimedGenerator final : public core::InputGenerator {
 public:
  TimedGenerator(core::InputGenerator& inner, std::size_t stride)
      : inner_(inner), stride_(stride) {}
  std::string name() const override { return inner_.name(); }
  double time_per_test_factor() const override {
    return inner_.time_per_test_factor();
  }
  std::vector<core::Program> next_batch(std::size_t n) override {
    const auto t0 = Clock::now();
    std::vector<core::Program> batch = inner_.next_batch(n);
    generate_s += seconds_since(t0);
    ++batches;
    for (const core::Program& p : batch) {
      if (seen_++ % stride_ == 0) sample.push_back(p);
    }
    return batch;
  }
  void feedback(const core::Feedback& fb) override {
    if (fb.coverages != nullptr) {
      for (const cov::TestCoverage& tc : *fb.coverages) {
        novel += tc.incremental_bins > 0 ? 1 : 0;
      }
    }
    const auto t0 = Clock::now();
    inner_.feedback(fb);
    feedback_s += seconds_since(t0);
  }

  double generate_s = 0, feedback_s = 0;
  std::size_t batches = 0, novel = 0;
  std::vector<core::Program> sample;

 private:
  core::InputGenerator& inner_;
  std::size_t stride_;
  std::size_t seen_ = 0;
};

/// FNV-1a over every simulated outcome of a campaign: tests run, the bits
/// of the final coverage, cycles, instructions, raw/filtered/unique
/// mismatches, findings and every curve point.
std::string digest_of(const core::CampaignResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  const auto bits = [](double d) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof b);
    return b;
  };
  mix(r.tests_run);
  mix(bits(r.final_cov_percent));
  mix(r.total_cycles);
  mix(r.total_instrs);
  mix(r.raw_mismatches);
  mix(r.filtered_mismatches);
  mix(r.unique_mismatches);
  for (const mismatch::Finding f : r.findings) mix(static_cast<std::uint64_t>(f));
  mix(r.curve.size());
  for (const core::CampaignPoint& p : r.curve) {
    mix(p.tests);
    mix(bits(p.hours));
    mix(bits(p.cond_cov_percent));
    mix(p.ctrl_states);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// A fixed kernel for the machine-speed probe: xorshift updates of a 4 KiB
/// table and a float multiply-add over 16 KiB, small enough to stay in L1.
class ProbeKernel {
 public:
  ProbeKernel() : table_(1024), fa_(2048), fb_(2048) {
    for (std::size_t i = 0; i < fa_.size(); ++i) {
      fa_[i] = 0.001f * static_cast<float>(i);
      fb_[i] = 1.0f / static_cast<float>(i + 1);
    }
  }
  double slice() {
    const auto t0 = Clock::now();
    std::uint64_t x = state_;
    for (int i = 0; i < 6000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & 1023] += static_cast<std::uint32_t>(x);
    }
    state_ = x;
    float acc = 0.f;
    for (int r = 0; r < 6; ++r) {
      for (std::size_t i = 0; i < fa_.size(); ++i) fa_[i] = fa_[i] * 0.999f + fb_[i] * 0.5f;
      for (std::size_t i = 0; i < fa_.size(); ++i) acc += fa_[i] * fb_[i];
    }
    fb_[0] += acc * 1e-20f;
    return seconds_since(t0);
  }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<float> fa_, fb_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/// Machine-speed calibration. The shared 4-core host this benchmark was
/// built on slows for seconds to minutes at a time when other tenants load
/// it, by up to half, which moves every wall-clock number between runs by
/// more than any useful bound. So before and after every set-up and every
/// campaign, and never during one, so that the workload's own cache use
/// cannot change what it measures, ProbeKernel runs 200 slices on each CPU
/// the process may use, on one pinned thread per CPU. Every CPU is probed
/// because the dist workers, and the measuring thread itself, run on any
/// of them. The mean over CPUs of the median slice time, over
/// kReferenceSliceS, is the slowdown; a measurement's seconds divided by
/// it are calibrated seconds. The reference is about the slice's time on
/// that host when idle: it only sets the unit, and it cancels out of every
/// comparison between two commits.
double machine_slowdown() {
  constexpr double kReferenceSliceS = 25.0e-6;
  constexpr int kSlices = 200;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> per_cpu(cpus.size(), std::numeric_limits<double>::quiet_NaN());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&per_cpu, &cpus, i] {
      try {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        // Best effort: an unpinned thread still probes some CPU.
        (void)sched_setaffinity(0, sizeof one, &one);
        ProbeKernel kernel;
        std::vector<double> t(kSlices);
        for (double& s : t) s = kernel.slice();
        per_cpu[i] = median(std::move(t));
      } catch (...) {
        // Leaves NaN, which surfaces as a non-finite metric.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0;
  for (const double s : per_cpu) sum += s;
  return sum / static_cast<double>(per_cpu.size()) / kReferenceSliceS;
}

/// One set-up at `seed`. ChatFuzz constructs its generator and trains it
/// offline. TheHuzz runs an 8192-test warm-up campaign on a fleet of its
/// own, which warms caches and the allocator and, for thehuzz_procs2, pays
/// the worker processes' first start; it returns a fresh fleet, so every
/// repeated round runs the same campaign. The warm-up is long enough (about
/// a quarter second) that a short stall of the host does not dominate it.
std::unique_ptr<core::InputGenerator> set_up(const Workload& w,
                                             std::uint64_t seed) {
  if (w.instances > 0) {
    core::CampaignConfig warm_up = w.config_at(seed);
    warm_up.num_tests = std::min<std::size_t>(8192, w.cfg.num_tests);
    TheHuzzFleet warm(seed, w.instances);
    (void)core::run_campaign(warm, warm_up);
    return std::make_unique<TheHuzzFleet>(seed, w.instances);
  }
  core::ChatFuzzConfig cc = w.chatfuzz;
  cc.seed = seed;
  auto gen = std::make_unique<core::ChatFuzzGenerator>(cc);
  gen->train_offline();
  return gen;
}

std::unique_ptr<core::ChatFuzzGenerator> restore_chatfuzz(
    const Workload& w, std::uint64_t seed, const std::string& snapshot) {
  core::ChatFuzzConfig cc = w.chatfuzz;
  cc.seed = seed;
  auto gen = std::make_unique<core::ChatFuzzGenerator>(cc);
  ser::Reader in(snapshot);
  if (!gen->restore_state(in) || !in.done()) {
    throw std::runtime_error("trained ChatFuzz state did not restore");
  }
  return gen;
}

/// A generator in the state set_up() leaves it in: a new fleet, or the
/// trained ChatFuzz generator restored from `snapshot`.
std::unique_ptr<core::InputGenerator> fresh_generator(
    const Workload& w, std::uint64_t seed, const std::string& snapshot) {
  if (w.instances > 0) return std::make_unique<TheHuzzFleet>(seed, w.instances);
  return restore_chatfuzz(w, seed, snapshot);
}

/// One measured campaign. The hook fires once per batch
/// (checkpoint_every = batch_size) and stamps the time.
struct Campaign {
  core::CampaignResult result;
  std::string digest;
  /// Seconds from the call to the first stamp, between stamps, and from
  /// the last stamp to the return: the same work in every repeat.
  std::vector<double> intervals;
  std::vector<double> cov_at_stamp;
  double slowdown = 1;  // machine_slowdown() around the campaign

  double wall_s() const {
    double s = 0;
    for (const double i : intervals) s += i;
    return s;
  }
  /// Calibrated seconds to the first stamp at or above `target` percent
  /// coverage; negative when the campaign never reaches it.
  double time_to(double target) const {
    double t = 0;
    for (std::size_t i = 0; i < cov_at_stamp.size(); ++i) {
      t += intervals[i];
      if (cov_at_stamp[i] >= target) return t / slowdown;
    }
    return -1;
  }
  double mean_cov() const {
    double s = 0;
    for (const core::CampaignPoint& p : result.curve) s += p.cond_cov_percent;
    return result.curve.empty() ? 0 : s / static_cast<double>(result.curve.size());
  }
};

/// Run one campaign and probe the machine after it. The probe before it is
/// passed in, so a round's campaign shares it with the set-up before it.
Campaign run_timed(core::InputGenerator& gen, const core::CampaignConfig& cfg,
                   double slowdown_before) {
  Campaign c;
  auto last = Clock::now();
  c.result = core::run_campaign(gen, cfg, [&](const core::CampaignPoint& p) {
    const auto now = Clock::now();
    c.intervals.push_back(std::chrono::duration<double>(now - last).count());
    c.cov_at_stamp.push_back(p.cond_cov_percent);
    last = now;
  });
  c.intervals.push_back(seconds_since(last));
  c.slowdown = 0.5 * (slowdown_before + machine_slowdown());
  c.digest = digest_of(c.result);
  return c;
}

struct Round {
  double setup_s = 0;  // calibrated
  Campaign campaign;
};

Round run_round(const Workload& w, std::uint64_t seed) {
  Round r;
  const double before = machine_slowdown();
  const auto t0 = Clock::now();
  const std::unique_ptr<core::InputGenerator> gen = set_up(w, seed);
  const double setup_wall = seconds_since(t0);
  const double between = machine_slowdown();
  r.setup_s = setup_wall / (0.5 * (before + between));
  r.campaign = run_timed(*gen, w.config_at(seed), between);
  return r;
}

/// Seconds of the rounds' campaigns, summed, and calibrated by each
/// round's slowdown unless `raw`. Repeated rounds run the same campaign,
/// so for each interval between two hook stamps the fastest round's time
/// is its least disturbed measurement; the sum of those minima stands for
/// every round. Distinct rounds sum their own times.
double measured_seconds(const std::vector<Round>& rounds, bool repeated,
                        bool raw) {
  const auto scale = [raw](const Round& r) {
    return raw ? 1.0 : 1.0 / r.campaign.slowdown;
  };
  if (!repeated) {
    double s = 0;
    for (const Round& r : rounds) s += r.campaign.wall_s() * scale(r);
    return s;
  }
  std::size_t n = rounds.front().campaign.intervals.size();
  for (const Round& r : rounds) n = std::min(n, r.campaign.intervals.size());
  double fastest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double m = std::numeric_limits<double>::infinity();
    for (const Round& r : rounds) m = std::min(m, r.campaign.intervals[i] * scale(r));
    fastest += m;
  }
  return static_cast<double>(rounds.size()) * fastest;
}

double cpu_seconds(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Outcome {
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  Metrics metrics;   // the contract metrics, printed in the JSON line
  Metrics extra;     // reported on the human-readable lines only
  std::string digest;
};

/// Count a campaign's tests and gate it: the full budget must run, and its
/// digest must equal `expect` (when given).
void check_campaign(const Campaign& c, const core::CampaignConfig& cfg,
                    const std::string& expect, const std::string& what,
                    Outcome& out) {
  out.attempted += cfg.num_tests;
  if (c.result.tests_run != cfg.num_tests) {
    out.failed += cfg.num_tests - std::min(cfg.num_tests, c.result.tests_run);
    out.problems.push_back(what + " ran " + std::to_string(c.result.tests_run) +
                           " of " + std::to_string(cfg.num_tests) + " tests");
  }
  if (!expect.empty() && c.digest != expect) {
    out.problems.push_back(what + " digest " + c.digest + " differs from " +
                           expect);
  }
}

/// Dist parity: with worker processes, first run the same campaign in
/// process; every dist campaign must reproduce its digest. Returns the
/// reference, or nothing for single-process workloads.
std::optional<Campaign> in_process_reference(const Workload& w,
                                             const std::string& snapshot,
                                             Outcome& out) {
  if (w.cfg.dist.num_procs <= 1) return std::nullopt;
  core::CampaignConfig local = w.cfg;
  local.dist = {};
  auto gen = fresh_generator(w, w.cfg.seed, snapshot);
  Campaign ref = run_timed(*gen, local, machine_slowdown());
  check_campaign(ref, local, "", "in-process reference", out);
  return ref;
}

double mean_of(const std::vector<Round>& rounds,
               double (*f)(const Campaign&)) {
  double s = 0;
  for (const Round& r : rounds) s += f(r.campaign);
  return s / static_cast<double>(rounds.size());
}

Outcome run_end_to_end(const Workload& w, const Options& o) {
  Outcome out;
  const bool repeated = w.repeats_rounds();
  std::string expect;
  if (const auto ref = in_process_reference(w, "", out)) expect = ref->digest;

  // Repeated rounds continue past kRounds until --seconds of campaign time
  // are used; their outcomes are identical, so only the timing sees more
  // samples. Distinct rounds are exactly kRounds, so their averaged
  // outcomes depend on the seed alone.
  const int min_rounds = o.smoke ? 1 : kRounds;
  std::vector<Round> rounds;
  double campaign_s = 0;
  while (static_cast<int>(rounds.size()) < min_rounds ||
         (repeated && !o.smoke && campaign_s < o.seconds)) {
    const int i = static_cast<int>(rounds.size());
    rounds.push_back(run_round(w, w.round_seed(i)));
    const Campaign& c = rounds.back().campaign;
    campaign_s += c.wall_s();
    if (repeated && expect.empty()) expect = c.digest;
    check_campaign(c, w.config_at(w.round_seed(i)), repeated ? expect : "",
                   "round " + std::to_string(i + 1), out);
  }

  double tests = 0, instrs = 0;
  std::vector<double> setup_s, slowdown, ttc, paper_hours;
  for (const Round& r : rounds) {
    tests += static_cast<double>(r.campaign.result.tests_run);
    instrs += static_cast<double>(r.campaign.result.total_instrs);
    setup_s.push_back(r.setup_s);
    slowdown.push_back(r.campaign.slowdown);
    const double t = r.campaign.time_to(w.cov_target);
    if (t >= 0) {
      ttc.push_back(t);
      paper_hours.push_back(r.campaign.result.hours_to(w.cov_target));
    }
  }
  const double seconds = measured_seconds(rounds, repeated, false);
  const double n = static_cast<double>(rounds.size());
  out.digest = rounds.front().campaign.digest;
  out.metrics = {
      {"tests_per_s", tests / seconds, "tests/s"},
      {"cov_pct",
       mean_of(rounds, [](const Campaign& c) { return c.result.final_cov_percent; }),
       "%"},
      {"cov_auc_pct", mean_of(rounds, [](const Campaign& c) { return c.mean_cov(); }),
       "%"},
      {"unique_mismatches",
       mean_of(rounds,
               [](const Campaign& c) {
                 return static_cast<double>(c.result.unique_mismatches);
               }),
       "count"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  // Measured wall-clock beside the modeled paper-hours (CampaignResult::
  // hours): the model counts tests at the paper's VCS rate and never
  // enters a metric.
  out.extra = {
      {"rounds", n, "count"},
      {"batches_per_campaign",
       static_cast<double>(rounds.front().campaign.result.curve.size()), "count"},
      {"raw_tests_per_s", tests / measured_seconds(rounds, repeated, true), "tests/s"},
      {"slowdown", median(slowdown), "x"},
      {"instrs_per_s", instrs / seconds, "instr/s"},
      {"campaign_s", seconds / n, "s"},
      {"modeled_campaign_hours", rounds.front().campaign.result.hours, "modeled-h"},
      {"cov_target_pct", w.cov_target, "%"},
  };
  // Reaching the target is a property of the seed, not a correctness gate.
  out.extra.push_back({"cov_target_reached", static_cast<double>(ttc.size()), "rounds"});
  if (!ttc.empty()) {
    out.extra.push_back({"time_to_cov_s", median(ttc), "s"});
    out.extra.push_back({"modeled_paper_hours", median(paper_hours), "modeled-h"});
  }
  out.extra.push_back(
      {"raw_mismatches",
       mean_of(rounds,
               [](const Campaign& c) {
                 return static_cast<double>(c.result.raw_mismatches);
               }),
       "count"});
  out.extra.push_back(
      {"findings",
       mean_of(rounds,
               [](const Campaign& c) {
                 return static_cast<double>(c.result.findings.size());
               }),
       "count"});
  return out;
}

Outcome run_traced(const Workload& w, const Options& o) {
  Outcome out;
  const std::uint64_t seed = w.cfg.seed;
  std::unique_ptr<core::InputGenerator> plain_gen = set_up(w, seed);
  std::string snapshot;
  if (w.instances == 0) {
    ser::Writer state;
    plain_gen->save_state(state);
    snapshot = state.take();
  }
  std::string expect;
  double base_tps = 0;
  if (const auto ref = in_process_reference(w, snapshot, out)) {
    expect = ref->digest;
    base_tps = static_cast<double>(ref->result.tests_run) * ref->slowdown /
               ref->wall_s();
  }

  // The same campaign untraced, then traced through the timing wrapper:
  // telemetry is out-of-band, so both digests must agree, and their wall
  // times give the tracing overhead.
  const Campaign plain = run_timed(*plain_gen, w.cfg, machine_slowdown());
  if (expect.empty()) expect = plain.digest;
  check_campaign(plain, w.cfg, expect, "untraced campaign", out);

  std::filesystem::create_directories(o.out_dir);
  core::CampaignConfig traced_cfg = w.cfg;
  traced_cfg.trace_path = o.out_dir + "/campaign-trace-" + w.name + ".json";
  auto inner = fresh_generator(w, seed, snapshot);
  TimedGenerator gen(*inner, w.replay_stride);
  const double before = machine_slowdown();
  const double self0 = cpu_seconds(RUSAGE_SELF);
  const double kids0 = cpu_seconds(RUSAGE_CHILDREN);
  const Campaign traced = run_timed(gen, traced_cfg, before);
  const double self_cpu = cpu_seconds(RUSAGE_SELF) - self0;
  const double kids_cpu = cpu_seconds(RUSAGE_CHILDREN) - kids0;
  check_campaign(traced, traced_cfg, expect, "traced campaign", out);
  out.digest = traced.digest;

  // core: per-batch split of the traced campaign, seen from the wrapper.
  const double wall = traced.wall_s();
  const double engine_s = wall - gen.generate_s - gen.feedback_s;
  const double batches = static_cast<double>(std::max<std::size_t>(1, gen.batches));
  const double tests = static_cast<double>(std::max<std::size_t>(1, traced.result.tests_run));
  Metrics& m = out.metrics;
  m.push_back({"core.generate_ms", 1e3 * gen.generate_s / batches, "ms"});
  m.push_back({"core.feedback_ms", 1e3 * gen.feedback_s / batches, "ms"});
  m.push_back({"core.engine_ms", 1e3 * engine_s / batches, "ms"});
  m.push_back({"core.generate_share", gen.generate_s / wall, "share"});
  m.push_back({"core.feedback_share", gen.feedback_s / wall, "share"});
  m.push_back({"core.engine_share", engine_s / wall, "share"});
  m.push_back({"core.novel_test_share", static_cast<double>(gen.novel) / tests, "share"});

  // The replay and the ML probes record their own "bench.*" spans.
  obs::trace_start();
  const bench::SimLayers L = bench::measure_sim_layers(w.cfg, gen.sample);
  const double n = static_cast<double>(std::max<std::size_t>(1, L.tests));
  const double run_one_us = 1e6 * L.run_one_s / n;
  const double apply_us = 1e6 * L.apply_bins_s / n;
  const double accumulate_us = 1e6 * L.accumulate_s / n;
  // run_one pulls the golden model once per DUT backend.
  const double golden_passes = static_cast<double>(core::effective_duts(w.cfg).size());
  m.push_back({"core.run_one_us", run_one_us, "us"});
  m.push_back({"core.engine_other_us",
               1e6 * engine_s / tests - run_one_us - apply_us - accumulate_us, "us"});
  m.push_back({"rtlsim.dut_us", 1e6 * L.dut_s / n, "us"});
  m.push_back({"rtlsim.ooo_us", 1e6 * L.ooo_s / n, "us"});
  m.push_back({"rtlsim.instrs_per_s", static_cast<double>(L.dut_steps) / L.dut_s, "instr/s"});
  m.push_back({"isasim.golden_us", 1e6 * L.golden_s / n, "us"});
  m.push_back({"isasim.instrs_per_s", static_cast<double>(L.golden_steps) / L.golden_s, "instr/s"});
  m.push_back({"mismatch.lockstep_us",
               1e6 * (L.run_one_s - L.dut_s - golden_passes * L.golden_s) / n, "us"});
  m.push_back({"coverage.apply_bins_us", apply_us, "us"});
  m.push_back({"mismatch.accumulate_us", accumulate_us, "us"});
  m.push_back({"sim.instrs_per_test", static_cast<double>(L.steps) / n, "instr"});
  m.push_back({"rtlsim.cycles_per_instr",
               static_cast<double>(L.cycles) / static_cast<double>(std::max<std::uint64_t>(1, L.dut_steps)),
               "cycles/instr"});
  m.push_back({"coverage.bins_per_test", static_cast<double>(L.bins) / n, "bins"});
  m.push_back({"mismatch.raw_per_test", static_cast<double>(L.raw_mismatches) / n, "count"});
  const double leased = static_cast<double>(std::max<std::size_t>(1, L.leased_tests));
  m.push_back({"dist.encode_us", 1e6 * L.encode_s / leased, "us"});
  m.push_back({"dist.decode_us", 1e6 * L.decode_s / leased, "us"});
  m.push_back({"dist.bytes_per_test", static_cast<double>(L.lease_bytes) / leased, "B"});

  // ML layer, at the ChatFuzz campaign shape on a copy of the trained
  // policy. The TheHuzz workloads run no ML and report zeros.
  bench::MlLayer ml;
  if (w.instances == 0) {
    const auto trained = restore_chatfuzz(w, seed, snapshot);
    ml = bench::measure_ml_layer(w.chatfuzz, trained->model(), seed, o.smoke ? 1 : 5);
  }
  bench::report_ml_layer(ml, m);
  obs::trace_stop();
  std::string err;
  const std::string bench_trace = o.out_dir + "/bench-trace-" + w.name + ".json";
  if (!obs::write_chrome_trace(bench_trace, &err)) {
    out.problems.push_back("bench trace export failed: " + err);
  }
  const double traced_s = traced.wall_s() / traced.slowdown;
  const double plain_s = plain.wall_s() / plain.slowdown;
  m.push_back({"trace_overhead_pct", 100.0 * (traced_s / plain_s - 1.0), "%"});

  out.extra = {
      {"traced_campaign_s", traced_s, "s"},
      {"untraced_campaign_s", plain_s, "s"},
      {"slowdown", traced.slowdown, "x"},
      {"replayed_tests", static_cast<double>(L.tests), "count"},
  };
  if (w.cfg.dist.num_procs > 1) {
    // CPU split of the traced dist campaign: the coordinator folds, the
    // worker processes simulate. The speedup's base is the in-process
    // campaign of the same workload and seed, run in this process.
    const double procs = static_cast<double>(w.cfg.dist.num_procs);
    out.extra.push_back({"dist.coord_cpu_s", self_cpu, "s"});
    out.extra.push_back({"dist.worker_cpu_s", kids_cpu, "s"});
    out.extra.push_back({"dist.worker_busy_share", kids_cpu / (procs * wall), "share"});
    out.extra.push_back({"dist.speedup",
                         static_cast<double>(plain.result.tests_run) / plain_s / base_tps,
                         "x-over-in-process"});
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_metrics(const char* label, const Metrics& ms) {
  std::printf("  %s:", label);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s %s=%s %s", i == 0 ? "" : ",", ms[i].name.c_str(),
                number(ms[i].value).c_str(), ms[i].unit.c_str());
  }
  std::printf("\n");
}

void print_report(const Workload& w, const Options& o, const Outcome& out) {
  const bool correct = out.problems.empty();
  std::printf(
      "[benchmark] workload=%s seed=%llu trace=%d smoke=%d correct=%s "
      "tests=%zu failed_tests=%zu digest=%s nproc=%u commit=%s compiler=%s "
      "build=%s\n",
      w.name.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
      o.smoke ? 1 : 0, correct ? "yes" : "no", out.attempted,
      correct ? out.failed : out.attempted, out.digest.c_str(),
      std::thread::hardware_concurrency(), o.commit.c_str(), BENCH_COMPILER,
      BENCH_BUILD_TYPE);
  print_metrics(o.trace ? "per-layer" : "end-to-end", out.metrics);
  print_metrics("reported", out.extra);
  for (const std::string& p : out.problems) std::printf("  FAILED: %s\n", p.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", out.attempted,
              correct ? out.failed : out.attempted);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const bench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "chatfuzz_benchmark: %s\n"
               "usage: chatfuzz_benchmark --workload <chatfuzz|thehuzz|"
               "thehuzz_procs2|thehuzz_2dut> [--seed N] [--seconds N] "
               "[--trace 0|1] [--smoke] [--out-dir DIR] [--commit ID]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_uint(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || end == nullptr || *end != '\0') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_uint(value(), "--seed");
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(value(), "--seconds"));
    } else if (a == "--trace") {
      const std::uint64_t t = parse_uint(value(), "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      o.trace = t == 1;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--out-dir") {
      o.out_dir = value();
    } else if (a == "--commit") {
      o.commit = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the library's environment knobs before any library call (the ML
  // thread count is read lazily on first use).
  for (const char* var : {"CHATFUZZ_ML_THREADS", "CHATFUZZ_WORKERS", "CHATFUZZ_SMOKE"}) {
    unsetenv(var);
  }
  // The dist coordinator re-execs /proc/self/exe to start its workers.
  if (const auto rc = dist::maybe_worker_main(argc, argv)) return *rc;

#ifndef NDEBUG
  std::fprintf(stderr, "chatfuzz_benchmark: refusing to measure a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "chatfuzz_benchmark: refusing to measure a %s build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 BENCH_BUILD_TYPE);
    return 2;
  }

  const Options o = parse(argc, argv);
  const std::optional<Workload> w = make_workload(o.workload, o.seed, o.smoke);
  if (!w) usage(("unknown workload " + o.workload).c_str());
  try {
    Outcome out = o.trace ? run_traced(*w, o) : run_end_to_end(*w, o);
    for (bench::Metric& m : out.metrics) {
      if (!std::isfinite(m.value)) {
        out.problems.push_back(m.name + " is not a finite number");
        m.value = 0;
      }
    }
    print_report(*w, o, out);
    return out.problems.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chatfuzz_benchmark: %s: %s\n", w->name.c_str(), e.what());
    return 1;
  }
}
