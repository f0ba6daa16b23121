// The paper's claims, reproduced by one harness. Each §V table, Fig. 2,
// the §III-B training stages and each ablation is one entry of kClaims; its
// run function fills measured rows and named checks, and one printer
// renders every claim the same way, ending it with one JSON line.
//
//   usage: bench_paper                  every claim at its default size
//          bench_paper <claim> [tests]  one claim
//
// CHATFUZZ_WORKERS sets the simulation workers of every campaign. The exit
// status is 0 whatever the verdicts: a CHECK is a measured departure from
// the paper, not a harness failure.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/hypfuzz.h"
#include "baselines/mutational.h"
#include "baselines/psofuzz.h"
#include "core/campaign.h"
#include "core/chatfuzz.h"
#include "core/training.h"
#include "riscv/disasm.h"
#include "util/parse.h"
#include "util/serialize.h"

namespace chatfuzz::bench {
namespace {

/// Paper throughput (§V-A): ~1.8K tests in ~52 minutes on ten VCS instances
/// for both ChatFuzz and TheHuzz -> ~2077 tests/hour. All "hours" columns
/// convert test counts through this constant (DifuzzRTL pays its 3.33x
/// factor on top). Campaign *sizes* are scaled down for laptop runtime;
/// each claim prints its scale factor.
constexpr double kPaperTestsPerHour = 1800.0 / (52.0 / 60.0);

/// printf into a string; callers format labels, numbers and JSON keys,
/// all far below the buffer.
[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

// ---- What a claim measures ------------------------------------------------

/// One measured number; `fmt` prints it in the table.
struct Value {
  std::string name;
  double v;
  const char* fmt;
};

struct Row {
  std::string label;
  std::string paper;  // the paper's value; empty where it reports none
  std::vector<Value> ours;

  Row& add(std::string name, double v, const char* fmt = "%.0f") {
    ours.push_back({std::move(name), v, fmt});
    return *this;
  }
  Row& pct(std::string name, double v) {
    return add(std::move(name), v, "%.2f%%");
  }
};

struct Check {
  std::string name;
  bool pass;
  std::string detail;  // the numbers it compared that no row shows
};

struct Measured {
  std::vector<Row> rows;
  std::vector<Check> checks;

  Row& row(std::string label, std::string paper = "") {
    return rows.emplace_back(Row{std::move(label), std::move(paper), {}});
  }
  void check(std::string name, bool pass, std::string detail = "") {
    checks.push_back({std::move(name), pass, std::move(detail)});
  }
};

// ---- Campaigns ------------------------------------------------------------

/// Simulation worker threads for all campaigns, from CHATFUZZ_WORKERS
/// (default 1, "0" = all cores). Campaign results are bit-identical for any
/// value, so claims stay comparable across machines; only wall-clock moves.
/// A malformed value falls back to the default loudly rather than silently
/// meaning "all cores" — timing numbers must not be misattributed.
std::size_t bench_workers() {
  const char* env = std::getenv("CHATFUZZ_WORKERS");
  const auto parsed = env ? parse_count(env) : std::optional<std::size_t>(1);
  if (!parsed) {
    std::fprintf(stderr,
                 "[paper] ignoring malformed CHATFUZZ_WORKERS=\"%s\" "
                 "(using 1 worker)\n",
                 env);
  }
  return parsed.value_or(1);
}

core::CampaignConfig rocket_campaign(std::size_t tests) {
  core::CampaignConfig cfg;
  cfg.num_tests = tests;
  cfg.batch_size = 32;
  cfg.checkpoint_every = std::max<std::size_t>(tests / 40, 25);
  cfg.platform.max_steps = 512;
  cfg.tests_per_hour = kPaperTestsPerHour;
  cfg.num_workers = bench_workers();
  return cfg;
}

core::CampaignResult campaign(core::InputGenerator& gen,
                              const core::CampaignConfig& cfg) {
  std::fprintf(stderr, "[paper] %s, %zu tests...\n", gen.name().c_str(),
               cfg.num_tests);
  return core::run_campaign(gen, cfg);
}

/// Coverage at the last curve point within a budget of `tests` tests.
double cov_at(const core::CampaignResult& r, double tests) {
  double cov = 0.0;
  for (const core::CampaignPoint& p : r.curve) {
    if (static_cast<double>(p.tests) <= tests) cov = p.cond_cov_percent;
  }
  return cov;
}

/// Share of invalid instruction words in `batches` batches of `n` programs.
double invalid_rate(core::ChatFuzzGenerator& gen, int batches, std::size_t n) {
  std::size_t total = 0, invalid = 0;
  for (int i = 0; i < batches; ++i) {
    for (const auto& p : gen.next_batch(n)) {
      const riscv::DisasmAudit a = riscv::audit(p);
      total += a.total;
      invalid += a.invalid;
    }
  }
  return total > 0 ? static_cast<double>(invalid) / static_cast<double>(total)
                   : 1.0;
}

// ---- ChatFuzz models ------------------------------------------------------
// Training takes seconds of CPU, so each stage-1/2 recipe trains once per
// process and every campaign runs on a fresh clone of that model.

/// Stage-1/2 budgets: the claims' own, the library's default, and stage 1
/// alone for the claims that measure around stage 2.
enum Recipe { kBench, kLibrary, kStage1Only, kRecipes };

core::ChatFuzzConfig recipe_config(Recipe recipe) {
  core::ChatFuzzConfig cfg;
  if (recipe == kBench) {
    cfg.pretrain_samples = 1600;
    cfg.pretrain.epochs = 5;
    cfg.cleanup_iters = 8;
  } else if (recipe == kStage1Only) {
    cfg.pretrain_samples = 1200;
    cfg.pretrain.epochs = 4;
    cfg.cleanup_iters = 0;
  }
  return cfg;
}

/// `recipe`'s model, trained on first use. No claim mutates it.
const core::ChatFuzzGenerator& trained(Recipe recipe) {
  static std::unique_ptr<core::ChatFuzzGenerator> cache[kRecipes];
  std::unique_ptr<core::ChatFuzzGenerator>& gen = cache[recipe];
  if (!gen) {
    gen = std::make_unique<core::ChatFuzzGenerator>(recipe_config(recipe));
    std::fprintf(stderr, "[paper] training ChatFuzz stages 1-2...\n");
    gen->train_offline();
  }
  return *gen;
}

/// A generator restored from the save_state() bytes of `recipe`'s trained
/// model, so it starts from the bits a freshly trained one would. Only
/// `reward`'s stage-3 reward weights are used; stages 1-2 never read them.
std::unique_ptr<core::ChatFuzzGenerator> chatfuzz(
    Recipe recipe, const core::ChatFuzzConfig& reward = {}) {
  core::ChatFuzzConfig cfg = recipe_config(recipe);
  cfg.w_incremental = reward.w_incremental;
  cfg.w_standalone = reward.w_standalone;
  cfg.no_improvement_penalty = reward.no_improvement_penalty;
  cfg.invalid_penalty = reward.invalid_penalty;
  ser::Writer w;
  trained(recipe).save_state(w);
  auto gen = std::make_unique<core::ChatFuzzGenerator>(cfg);
  ser::Reader r(w.buffer());
  if (!gen->restore_state(r) || !r.done()) {
    std::fprintf(stderr, "[paper] cannot restore a trained ChatFuzz model\n");
    std::abort();
  }
  return gen;
}

// ---- The claims -----------------------------------------------------------

// §V-A headline table: condition coverage after 1.8K tests with equal
// instruction counts per test — the paper's equal-budget comparison point.
void tab_coverage_1p8k(Measured& m, std::size_t n, std::uint64_t seed) {
  const core::CampaignConfig cfg = rocket_campaign(n);
  baselines::TheHuzzFuzzer huzz(seed);
  const double h = campaign(huzz, cfg).final_cov_percent;
  baselines::RandomFuzzer random(seed);  // reference
  const double r = campaign(random, cfg).final_cov_percent;
  const double c = campaign(*chatfuzz(kBench), cfg).final_cov_percent;
  m.row("ChatFuzz", "74.96%").pct("cond-cov", c);
  m.row("TheHuzz", "67.40%").pct("cond-cov", h);
  m.row("Random").pct("cond-cov", r);
  m.row("ChatFuzz - TheHuzz gap", "+7.56").add("points", c - h, "%+.2f");
  m.check("ChatFuzz > TheHuzz >= Random at equal test budget",
          c > h && h >= r - 0.5);
}

// §V-A long-horizon table: coverage at the paper's 199K-test budget.
// Scaled: the substrate core saturates with far fewer tests than VCS
// RocketCore, so the claim runs `n` tests per fuzzer and labels the scale.
void tab_coverage_199k(Measured& m, std::size_t n, std::uint64_t seed) {
  const core::CampaignConfig cfg = rocket_campaign(n);
  baselines::TheHuzzFuzzer huzz(seed);
  const double h = campaign(huzz, cfg).final_cov_percent;
  const double c = campaign(*chatfuzz(kBench), cfg).final_cov_percent;
  m.row("scale").add("paper tests per test", 199000.0 / n, "%.1f");
  m.row("ChatFuzz", "79.14%").pct("cond-cov", c);
  m.row("TheHuzz", "76.70%").pct("cond-cov", h);
  m.check(
      "ChatFuzz stays ahead at the long horizon, with a narrower gap than "
      "at 1.8K tests",
      c > h);
}

// §V-A BOOM result: ChatFuzz reaches 97.02% condition coverage on the
// BOOM-class core in 49 minutes. ChatFuzz (and TheHuzz for reference) run
// on the BOOM configuration; coverage is read at the 49-minute-equivalent
// test budget and at the end of the campaign.
void tab_boom(Measured& m, std::size_t n, std::uint64_t seed) {
  core::CampaignConfig cfg = rocket_campaign(n);
  cfg.core = rtl::CoreConfig::boom();
  cfg.checkpoint_every = std::max<std::size_t>(n / 50, 10);
  const core::CampaignResult rc = campaign(*chatfuzz(kBench), cfg);
  baselines::TheHuzzFuzzer huzz(seed);
  const core::CampaignResult rh = campaign(huzz, cfg);
  const double at_49 = cov_at(rc, kPaperTestsPerHour * 49.0 / 60.0);
  m.row("ChatFuzz @ 49 min", "97.02%").pct("cond-cov", at_49);
  m.row("ChatFuzz final").pct("cond-cov", rc.final_cov_percent);
  m.row("TheHuzz final").pct("cond-cov", rh.final_cov_percent);
  m.check(
      "BOOM saturates far higher than RocketCore and ChatFuzz reaches ~97% "
      "within the 49-minute budget",
      at_49 >= 90.0);
}

// §V-A speed table: time for each fuzzer to reach the coverage level
// ChatFuzz attains in its first paper-hour. The paper reports ChatFuzz at
// 75% in 52 min vs ~30 h for TheHuzz (34.6x), and TheHuzz ~3.33x faster
// than DifuzzRTL overall.
void tab_speedup(Measured& m, std::size_t n, std::uint64_t seed) {
  core::CampaignConfig cfg = rocket_campaign(n);
  cfg.checkpoint_every = std::max<std::size_t>(n / 200, 10);
  const core::CampaignResult rc = campaign(*chatfuzz(kBench), cfg);
  baselines::TheHuzzFuzzer huzz(seed);
  const core::CampaignResult rh = campaign(huzz, cfg);
  baselines::DifuzzRtlFuzzer difuzz(seed);
  const core::CampaignResult rd = campaign(difuzz, cfg);

  const double threshold = cov_at(rc, kPaperTestsPerHour);
  m.row(format("threshold: ChatFuzz after ~1 paper-hour (%zu tests)",
               static_cast<std::size_t>(kPaperTestsPerHour)))
      .pct("cond-cov", threshold);
  for (const core::CampaignResult* r : {&rc, &rh, &rd}) {
    Row& row = m.row(r->fuzzer).pct("final cond-cov", r->final_cov_percent);
    if (r->hours_to(threshold) >= 0) {
      row.add("hours to threshold", r->hours_to(threshold), "%.2f")
          .add("at tests", r->tests_to(threshold));
    }
  }
  const double tc = rc.hours_to(threshold);
  const double th = rh.hours_to(threshold);
  const double td = rd.hours_to(threshold);
  if (tc > 0 && th > 0) {
    m.row("ChatFuzz over TheHuzz", "34.6x").add("speedup", th / tc, "%.1fx");
  } else if (tc > 0) {
    m.row("ChatFuzz over TheHuzz (TheHuzz never reached it)", "34.6x")
        .add("speedup >", rh.hours / tc, "%.1fx");
  }
  if (th > 0 && td > 0) {
    m.row("TheHuzz over DifuzzRTL", "~3.33x").add("speedup", td / th, "%.2fx");
  }
}

// §V-B reproduction: the findings pipeline. A ChatFuzz campaign with
// differential testing against the golden model must (a) produce thousands
// of raw mismatches, (b) dedup them to a small unique set automatically, and
// (c) surface all five of the paper's findings: Bug1 (CWE-1202 cache
// coherency), Bug2 (CWE-440 tracer), and Findings 1-3 (ISA deviations).
void tab_findings(Measured& m, std::size_t n, std::uint64_t) {
  const core::CampaignResult r =
      campaign(*chatfuzz(kBench), rocket_campaign(n));
  const auto raw = static_cast<double>(r.raw_mismatches);
  const auto unique = static_cast<double>(r.unique_mismatches);
  m.row("raw mismatch records", "5,866").add("count", r.raw_mismatches);
  m.row("filtered false positives").add("count", r.filtered_mismatches);
  m.row("unique mismatches after dedup", ">100")
      .add("count", r.unique_mismatches);
  m.row("dedup compression", "~50x")
      .add("ratio", unique > 0 ? raw / unique : 0.0, "%.1fx");
  int found = 0;
  // The paper's five findings are every Finding before kOther.
  for (int i = 0; i < static_cast<int>(mismatch::Finding::kOther); ++i) {
    const auto f = static_cast<mismatch::Finding>(i);
    const std::size_t hit = r.findings.count(f);
    found += hit != 0 ? 1 : 0;
    m.row(mismatch::finding_name(f)).add("found", hit);
  }
  m.check("all five findings surfaced by the fuzzing campaign alone",
          found == 5, format("%d/5", found));
}

// Related-work comparison (paper §I / §II-A): the paper situates ChatFuzz
// against the full line of processor fuzzers — TheHuzz (code-coverage
// mutational), DifuzzRTL (control-register coverage, ~3.33x slower per
// test), the hybrid HyPFuzz (formal-assisted) and PSOFuzz (PSO-scheduled
// mutation), and plain random regression. The published claims are ordinal:
// ChatFuzz > hybrids > TheHuzz > DifuzzRTL > random at equal test budget.
// All six generators run through the identical campaign harness.
void tab_related_fuzzers(Measured& m, std::size_t n, std::uint64_t seed) {
  const core::CampaignConfig cfg = rocket_campaign(n);
  baselines::RandomFuzzer random(seed);
  const core::CampaignResult rr = campaign(random, cfg);
  baselines::DifuzzRtlFuzzer difuzz(seed);
  const core::CampaignResult rd = campaign(difuzz, cfg);
  baselines::TheHuzzFuzzer huzz(seed);
  const core::CampaignResult rh = campaign(huzz, cfg);
  baselines::PsoFuzzer pso(seed);
  const core::CampaignResult rp = campaign(pso, cfg);
  baselines::HypFuzzConfig hcfg;
  hcfg.stagnation_batches = 1;  // scaled campaigns stagnate in shorter waves
  baselines::HypFuzzer hyp(seed, hcfg, cfg.platform);
  const core::CampaignResult ry = campaign(hyp, cfg);
  const core::CampaignResult rc = campaign(*chatfuzz(kBench), cfg);

  // HyPFuzz's formal calls are not free: the published tool spends minutes
  // of JasperGold time per targeted point, which is where its wall-clock
  // goes. Charge each *solved* point a nominal formal budget so the hours
  // column compares honestly (coverage-at-tests for HyPFuzz is unchanged).
  constexpr double kFormalHoursPerPoint = 0.05;  // ~3 min of solver per point
  const double formal_hours =
      kFormalHoursPerPoint * static_cast<double>(hyp.solved_points());
  const auto row = [&m](const core::CampaignResult& r, const char* guidance,
                        double hours) {
    m.row(r.fuzzer + " (" + guidance + ")")
        .pct("cond-cov", r.final_cov_percent)
        .add("paper-equiv h", hours, "%.2f");
  };
  row(rr, "no feedback", rr.hours);
  row(rd, "ctrl-reg cov, 3.33x cost", rd.hours);
  row(rh, "cond cov", rh.hours);
  row(rp, "PSO mutation scheduling", rp.hours);
  row(ry, "formal-assisted", ry.hours + formal_hours);
  row(rc, "this paper", rc.hours);
  m.row("HyPFuzz formal")
      .add("escalations", hyp.escalations())
      .add("solved", hyp.solved_points())
      .add("unreachable", hyp.unreachable_points())
      .add("charged h", formal_hours, "%.2f");

  const double chat = rc.final_cov_percent;
  const double huzz_cov = rh.final_cov_percent;
  const double chat_rate = chat / rc.hours;
  const double hyp_rate = ry.final_cov_percent / (ry.hours + formal_hours);
  m.check("ChatFuzz leads the pure fuzzers",
          chat > huzz_cov && chat > rp.final_cov_percent &&
              chat > rr.final_cov_percent);
  m.check("ChatFuzz > HyPFuzz per wall-clock hour", chat_rate > hyp_rate,
          format("%.1f vs %.1f %%/h", chat_rate, hyp_rate));
  m.check("HyPFuzz > TheHuzz at equal tests", ry.final_cov_percent > huzz_cov);
  m.check("PSOFuzz >= TheHuzz (PSO scheduling)",
          rp.final_cov_percent >= huzz_cov - 0.5);
  m.check("feedback beats random", huzz_cov > rr.final_cov_percent);
  m.check("DifuzzRTL pays 3.33x wall-clock", rd.hours > rh.hours * 3.0);
}

// §III-B(2) reproduction: stage-2 "model language cleanup" convergence.
// The paper monitors the PPO loss, the KL divergence between policies and
// the mean Eq.-1 reward across 30 epochs; this claim regenerates that series
// (scaled iteration count) and reports the invalid-instruction rate before
// and after cleanup. It runs no campaign.
void tab_training_stage2(Measured& m, std::size_t, std::uint64_t) {
  // Snapshots hold no training statistics; the cached original does.
  const auto& epochs = trained(kStage1Only).pretrain_stats();
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    m.row(format("stage1 epoch %zu", e + 1))
        .add("cross-entropy", epochs[e].mean_loss, "%.4f");
  }
  auto gen = chatfuzz(kStage1Only);
  const double invalid_before = invalid_rate(*gen, 4, 16);
  m.row("after stage 1 (before cleanup)")
      .add("invalid-rate", 100.0 * invalid_before, "%.1f%%");

  // Stage 2, instrumented per iteration.
  const core::ChatFuzzConfig cfg = recipe_config(kStage1Only);
  core::CleanupConfig cc;
  cc.iters = 10;
  cc.ppo = cfg.ppo;
  cc.sample = cfg.sample;
  cc.sample.max_new_tokens = cfg.gen_tokens;
  corpus::CorpusGenerator corpus(corpus::CorpusConfig{}, 123);
  ml::Gpt ref(cfg.model, 1);
  ref.copy_params_from(gen->model());
  Rng rng(99);
  const auto iters = core::cleanup_stage(gen->model(), ref, corpus, cc, rng);
  for (std::size_t i = 0; i < iters.size(); ++i) {
    m.row(format("cleanup iter %zu", i + 1))
        .add("mean Eq.1 reward", iters[i].mean_reward, "%.2f")
        .add("invalid-rate", 100.0 * iters[i].invalid_rate, "%.1f%%")
        .add("KL(policy||ref)", iters[i].mean_kl, "%.4f");
  }
  const double invalid_after = invalid_rate(*gen, 4, 16);
  m.row("after stage 2").add("invalid-rate", 100.0 * invalid_after, "%.1f%%");
  m.check(
      "reward rises / invalid-rate falls across iterations, and cleanup ends "
      "with a mostly-valid language",
      invalid_after < invalid_before && invalid_after < 0.15);
}

// Figure 2 reproduction: condition coverage of ChatFuzz vs. TheHuzz over a
// 24-hour RocketCore campaign. The paper's DUT (VCS-compiled RocketCore,
// ~47K condition bins) needs ~50K tests to saturate; our substrate core has
// ~700 bins, so one simulated test stands for `scale` paper tests and the
// series is mapped onto the paper's hour axis accordingly.
void fig2_coverage_over_time(Measured& m, std::size_t n, std::uint64_t seed) {
  const double scale = kPaperTestsPerHour * 24.0 / static_cast<double>(n);
  core::CampaignConfig cfg = rocket_campaign(n);
  cfg.checkpoint_every = n / 48;  // one point per paper half-hour
  baselines::TheHuzzFuzzer huzz(seed);
  const core::CampaignResult rh = campaign(huzz, cfg);
  const core::CampaignResult rc = campaign(*chatfuzz(kBench), cfg);

  m.row("scale").add("paper tests per test", scale, "%.1f");
  const std::size_t points = std::min(rc.curve.size(), rh.curve.size());
  for (std::size_t i = 0; i < points; ++i) {
    const double tests = static_cast<double>(rc.curve[i].tests);
    m.row("curve")
        .add("paper-hrs", tests * scale / kPaperTestsPerHour, "%.2f")
        .pct("ChatFuzz", rc.curve[i].cond_cov_percent)
        .pct("TheHuzz", rh.curve[i].cond_cov_percent);
  }
  m.row("final")
      .pct("ChatFuzz", rc.final_cov_percent)
      .pct("TheHuzz", rh.final_cov_percent);
  const double paper_hour = static_cast<double>(n) / 24.0;  // in tests
  const double early = cov_at(rc, paper_hour);
  const double late = cov_at(rh, 8.0 * paper_hour);
  m.check(
      "ChatFuzz within the first paper-hour already exceeds TheHuzz at "
      "paper-hour 8",
      early >= late, format("%.2f%% vs %.2f%%", early, late));
}

// Feedback-metric ablation (paper §V motivates fuzzing *condition* coverage
// because it "correlates the satisfaction of hardware design conditions
// with realizing new functional behaviors"): run the same TheHuzz-class
// mutational engine guided by each standard metric — condition, toggle,
// statement, FSM, control-register — and report the *condition* coverage
// each guidance signal ultimately earns. Statement coverage saturates
// within seconds and FSM coverage within minutes, so neither can steer a
// long campaign; condition coverage keeps a gradient alive the longest.
void ablation_feedback_metric(Measured& m, std::size_t n, std::uint64_t seed) {
  double cond = 0.0;  // under condition guidance, the first one run
  bool leads = true;
  bool saturates = true;
  double spread = 0.0;
  for (const auto g :
       {core::GuidanceMetric::kCondition, core::GuidanceMetric::kToggle,
        core::GuidanceMetric::kFsm, core::GuidanceMetric::kCtrlReg,
        core::GuidanceMetric::kStatement}) {
    core::CampaignConfig cfg = rocket_campaign(n);
    cfg.guidance = g;
    cfg.collect_multi_metrics = true;
    cfg.mismatch_detection = false;
    baselines::TheHuzzFuzzer fuzzer(seed);
    const core::CampaignResult r = campaign(fuzzer, cfg);
    m.row(core::guidance_name(g))
        .pct("cond-cov", r.final_cov_percent)
        .pct("toggle", r.toggle_percent)
        .pct("fsm", r.fsm_percent)
        .pct("statement", r.statement_percent);
    if (g == core::GuidanceMetric::kCondition) cond = r.final_cov_percent;
    if (r.final_cov_percent > cond + 0.75) leads = false;
    if (r.statement_percent < 90.0) saturates = false;
    spread = std::max(spread, std::abs(r.final_cov_percent - cond));
  }
  m.check("condition guidance leads or ties every other metric", leads);
  m.check("statement metric saturates (>90% everywhere)", saturates);
  // The deeper point (the paper's thesis): for a *mutational* engine the
  // guidance metric barely matters — no metric steers it into the deep
  // tail. Steering requires a generator that understands the language.
  m.check("guidance spread stays small (mutation can't steer)", spread < 2.0,
          format("max spread %.2f points", spread));
}

// Interrupt-stimulus ablation: the RocketCore model's interrupt-pending
// condition points are unreachable under the paper's testbench (no CLINT
// stimulus — the realistic reason 24h campaigns plateau below 80%). This
// ablation attaches the CLINT device, gives the seed generator the kernel
// timer-arming idiom, and lets HyPFuzz's solver target the irq lines: the
// previously-dead points become coverable, raising the attainable ceiling.
void ablation_interrupts(Measured& m, std::size_t n, std::uint64_t seed) {
  struct Cell {
    double cov = 0.0;
    std::size_t solved = 0;
    std::size_t unreachable = 0;
    std::size_t irq_uncovered = 0;  // irq.pending points missing the true bin
  };
  const auto run_cell = [&](const char* stimulus, bool clint) {
    core::CampaignConfig cfg = rocket_campaign(n);
    cfg.platform.clint_enabled = clint;
    cfg.mismatch_detection = false;
    baselines::HypFuzzConfig hcfg;
    hcfg.stagnation_batches = 1;
    baselines::HypFuzzer hyp(seed, hcfg, cfg.platform);
    const core::CampaignResult res = campaign(hyp, cfg);
    Cell cell{res.final_cov_percent, hyp.solved_points(),
              hyp.unreachable_points(), 0};
    for (const cov::UncoveredPoint& up : res.uncovered) {
      if (up.name.starts_with("irq.pending") && up.missing_true) {
        ++cell.irq_uncovered;
      }
    }
    m.row(stimulus)
        .pct("cond-cov", cell.cov)
        .add("points solved", cell.solved)
        .add("unreachable", cell.unreachable)
        .add("irq uncovered", cell.irq_uncovered);
    return cell;
  };
  const Cell off = run_cell("none (paper)", false);
  const Cell on = run_cell("CLINT timer/sw", true);
  m.check("irq.pending lines become coverable",
          on.irq_uncovered < off.irq_uncovered,
          format("%zu -> %zu uncovered", off.irq_uncovered, on.irq_uncovered));
  m.check("fewer points classified unreachable",
          on.unreachable < off.unreachable,
          format("%zu -> %zu", off.unreachable, on.unreachable));
  m.check("total coverage not degraded (noise tol.)", on.cov >= off.cov - 0.75,
          format("%+.2f pts", on.cov - off.cov));
}

// Ablation: stage-3 reward shaping (§IV-C3). The paper's reward combines
// incremental coverage (bonus), stand-alone coverage, and a penalty for
// generations that improve nothing. Each term is knocked out in turn and
// the coverage impact measured at an equal test budget.
void ablation_reward(Measured& m, std::size_t n, std::uint64_t) {
  const core::CampaignConfig cfg = rocket_campaign(n);
  core::ChatFuzzConfig no_bonus;
  no_bonus.w_incremental = 0.0;  // no bonus for new coverage
  core::ChatFuzzConfig no_penalty;
  no_penalty.no_improvement_penalty = 0.0;
  core::ChatFuzzConfig no_validity;
  no_validity.invalid_penalty = 0.0;  // language free to decay during stage 3
  const std::pair<const char*, core::ChatFuzzConfig> variants[] = {
      {"full (paper)", {}},
      {"no incremental bonus", no_bonus},
      {"no no-improvement penalty", no_penalty},
      {"no validity shaping", no_validity}};
  for (const auto& [label, reward] : variants) {
    const auto gen = chatfuzz(kLibrary, reward);
    m.row(label).pct("cond-cov", campaign(*gen, cfg).final_cov_percent);
  }
}

// Ablation: how much does each training stage contribute? Compares coverage
// of the fuzzing loop driven by (a) an untrained model, (b) the stage-1
// pretrained model, and (c) the stage-1+2 cleaned model, at an equal test
// budget — the evidence behind the paper's claim (§III-B) that each stage
// is load-bearing.
void ablation_training_stages(Measured& m, std::size_t n, std::uint64_t) {
  const core::CampaignConfig cfg = rocket_campaign(n);
  const auto measure = [&](const char* label, core::ChatFuzzGenerator& gen) {
    const double invalid = invalid_rate(gen, 1, 32);
    m.row(label)
        .add("invalid-rate", 100.0 * invalid, "%.1f%%")
        .pct("cond-cov", campaign(gen, cfg).final_cov_percent);
  };
  core::ChatFuzzGenerator untrained{core::ChatFuzzConfig{}};
  measure("untrained", untrained);
  measure("stage 1 (pretrain)", *chatfuzz(kStage1Only));
  measure("stages 1+2 (+3 online)", *chatfuzz(kBench));
}

struct Claim {
  const char* name;     // the reproduction binary the claim replaced
  const char* section;  // where the paper makes it
  const char* paper;    // what the paper reports, or what we expect of it
  std::size_t tests;    // default campaign size; 0 when it runs no campaign
  std::uint64_t seed;   // its baseline fuzzers' seed; 0 when it runs none
  void (*run)(Measured& m, std::size_t tests, std::uint64_t seed);
};

const Claim kClaims[] = {
    {"tab_coverage_1p8k", "§V-A",
     "ChatFuzz 74.96% vs TheHuzz 67.4% (same test count, same instr count)",
     1800, 21, tab_coverage_1p8k},
    {"tab_coverage_199k", "§V-A",
     "ChatFuzz 79.14% vs TheHuzz 76.7% at 199K tests", 4000, 41,
     tab_coverage_199k},
    {"tab_boom", "§V-A",
     "ChatFuzz reaches 97.02% condition coverage in 49 minutes", 2000, 51,
     tab_boom},
    {"tab_speedup", "§V-A",
     "ChatFuzz 75% in 52 min; TheHuzz ~30 h (34.6x slower); TheHuzz ~3.33x "
     "faster than DifuzzRTL",
     3000, 31, tab_speedup},
    {"tab_findings", "§V-B",
     "5,866 raw mismatches -> >100 unique after automated filtration; Bug1 "
     "(CWE-1202), Bug2 (CWE-440), Findings 1-3",
     2500, 0, tab_findings},
    {"tab_related_fuzzers", "§I, §II-A",
     "ordinal claims: ChatFuzz leads; hybrids beat TheHuzz; TheHuzz 3.33x "
     "faster than DifuzzRTL; all beat random",
     1200, 33, tab_related_fuzzers},
    {"tab_training_stage2", "§III-B2, §IV-C2",
     "PPO with the disassembler as deterministic reward agent, 30 epochs on "
     "a 51.2K-sample subset; reward f = N - 5*Invalid (Eq. 1)",
     0, 0, tab_training_stage2},
    {"fig2_coverage_over_time", "Fig. 2",
     "ChatFuzz reaches ~75% within the first hour; TheHuzz needs ~30 h; both "
     "start near 50% and end 77-80%",
     3000, 11, fig2_coverage_over_time},
    {"ablation_feedback_metric", "§V",
     "condition coverage chosen as feedback; statement/FSM saturate and stop "
     "steering",
     1000, 29, ablation_feedback_metric},
    {"ablation_interrupts", "§V",
     "irq condition points are the unreachable tail without interrupt "
     "stimulus, the plateau's cause",
     800, 41, ablation_interrupts},
    {"ablation_reward", "§IV-C3",
     "reward = incremental bonus + stand-alone term - no-improvement penalty "
     "(+ validity shaping); expected: the full reward at or near the top, "
     "and large drops show which term carries the steering signal",
     600, 0, ablation_reward},
    {"ablation_training_stages", "§III-B",
     "stage 1 teaches the language, stage 2 removes invalid generations, "
     "stage 3 steers coverage; expected: invalid-rate strictly falls per "
     "stage and coverage strictly rises",
     600, 0, ablation_training_stages},
};

// ---- The printer: a table, the verdicts, one JSON line --------------------

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

void print(const Claim& c, std::size_t tests, const Measured& m,
           double seconds) {
  const std::string rule(66, '=');
  std::printf("%s\n%s  %s", rule.c_str(), c.name, c.section);
  if (c.tests != 0) std::printf(", %zu tests", tests);
  if (c.seed != 0) std::printf(", baseline seed %" PRIu64, c.seed);
  std::printf("\npaper: %s\n%s\n", c.paper, rule.c_str());

  std::string json = format(
      "{\"claim\":%s,\"section\":%s,\"tests\":%zu,\"seed\":%" PRIu64
      ",\"rows\":[",
      json_str(c.name).c_str(), json_str(c.section).c_str(), tests, c.seed);
  for (std::size_t i = 0; i < m.rows.size(); ++i) {
    const Row& row = m.rows[i];
    std::string values;
    json += std::string(i ? "," : "") + "{\"label\":" + json_str(row.label) +
            ",\"paper\":" + json_str(row.paper) + ",\"ours\":{";
    for (std::size_t j = 0; j < row.ours.size(); ++j) {
      const Value& v = row.ours[j];
      values += (j ? ", " : "") + v.name + " " + format(v.fmt, v.v);
      json += std::string(j ? "," : "") + json_str(v.name) + ":" +
              (std::isfinite(v.v) ? format("%.10g", v.v) : "null");
    }
    json += "}}";
    std::printf("  %-30s  %s%s%s%s\n", row.label.c_str(), values.c_str(),
                row.paper.empty() ? "" : "  (paper ", row.paper.c_str(),
                row.paper.empty() ? "" : ")");
  }
  json += "],\"checks\":[";
  for (std::size_t i = 0; i < m.checks.size(); ++i) {
    const Check& ch = m.checks[i];
    const char* verdict = ch.pass ? "PASS" : "CHECK";
    std::printf("  %-5s  %s%s%s%s\n", verdict, ch.name.c_str(),
                ch.detail.empty() ? "" : " (", ch.detail.c_str(),
                ch.detail.empty() ? "" : ")");
    json += std::string(i ? "," : "") + "{\"name\":" + json_str(ch.name) +
            ",\"verdict\":" + json_str(verdict) +
            ",\"detail\":" + json_str(ch.detail) + "}";
  }
  std::printf("%s],\"seconds\":%.1f}\n", json.c_str(), seconds);
  std::fflush(stdout);
}

void run(const Claim& c, std::size_t tests) {
  const auto t0 = std::chrono::steady_clock::now();
  Measured m;
  c.run(m, tests, c.seed);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  print(c, tests, m, dt.count());
}

}  // namespace
}  // namespace chatfuzz::bench

int main(int argc, char** argv) {
  using namespace chatfuzz::bench;
  if (argc == 1) {
    for (const Claim& c : kClaims) run(c, c.tests);
    return 0;
  }
  const Claim* claim = nullptr;
  for (const Claim& c : kClaims) {
    if (std::string_view(argv[1]) == c.name) claim = &c;
  }
  // A count sizes a campaign; a malformed or zero one is rejected before
  // any training or simulation starts.
  const auto tests =
      argc == 3 ? chatfuzz::parse_count(argv[2]) : std::optional<std::size_t>();
  if (claim == nullptr || argc > 3 ||
      (argc == 3 && (!tests || *tests == 0 || claim->tests == 0))) {
    std::fprintf(stderr,
                 "usage: %s [claim [tests]]  (tests: a positive count)\n"
                 "claims (default tests):",
                 argv[0]);
    for (const Claim& c : kClaims) {
      std::fprintf(stderr, " %s", c.name);
      if (c.tests != 0) std::fprintf(stderr, " (%zu)", c.tests);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  run(*claim, tests.value_or(claim->tests));
  return 0;
}
