// chatfuzz — command-line front end for the library. Subcommands cover the
// day-to-day verification workflow (this list mirrors the kCommands table
// below, which is the single source the usage text is generated from):
//
//   chatfuzz asm <file.s>                 assemble text to a corpus file
//   chatfuzz disasm <corpus.txt> [n]      disassemble test n (default all)
//   chatfuzz run <corpus.txt> [n]         replay test n as a default `fuzz`
//                                          campaign runs it, print mismatches
//   chatfuzz minimize <corpus.txt> <n>    shrink test n to a minimal repro
//   chatfuzz fuzz <fuzzer> <tests>        run a campaign (random|thehuzz|difuzz|
//                                          psofuzz|hypfuzz|chatfuzz); --procs <n>
//                                          shards it across n worker processes
//   chatfuzz fuzz --resume <dir>          continue a checkpointed campaign
//   chatfuzz corpus <export|import|minimize|stats> <dir> ...
//                                          work with an on-disk corpus store
//   chatfuzz fleet status <host:port>     live state of a fuzz --listen fleet
//   chatfuzz solve <point-name>           directed test for a coverage point
//   chatfuzz worker --connect <a>         distributed-campaign worker;
//                                          spawned by fuzz --procs or
//                                          dialing a fuzz --listen fleet
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "baselines/hypfuzz.h"
#include "baselines/mutational.h"
#include "baselines/point_solver.h"
#include "baselines/psofuzz.h"
#include "core/campaign.h"
#include "core/chatfuzz.h"
#include "core/checkpoint.h"
#include "core/replay.h"
#include "core/sim_worker.h"
#include "corpus/stats.h"
#include "corpus/store.h"
#include "coverage/merge.h"
#include "dist/fleet.h"
#include "dist/worker.h"
#include "riscv/asm.h"
#include "riscv/disasm.h"
#include "rtlsim/core.h"
#include "rtlsim/dut.h"
#include "util/parse.h"

using namespace chatfuzz;

namespace {

/// One row per CLI surface. The file-header command list and usage() are
/// both this table rendered out, so neither can drift from the other (the
/// old hand-maintained usage string had lost `solve`).
struct CommandDoc {
  const char* name;  // subcommand (the <a|b|...> list dedups these in order)
  const char* args;  // argument signature
  const char* help;  // '\n'-separated description lines
};

constexpr CommandDoc kCommands[] = {
    {"asm", "<file.s>", "assemble to stdout (corpus format)"},
    {"disasm", "<corpus.txt> [n]", "disassemble test n (default: all)"},
    {"run", "<corpus.txt> [n]",
     "replay test n (default: all) as a default `fuzz` campaign runs it\n"
     "and report the mismatches"},
    {"minimize", "<corpus.txt> <n>",
     "shrink mismatching test n, replayed as a default `fuzz` campaign\n"
     "runs it"},
    {"fuzz",
     "<fuzzer> <tests> [workers] [--dut <list>] [--procs <n>] "
     "[--listen <host:port>] [--token <t>] [--port-file <f>] "
     "[--checkpoint <dir>] [--every <n>] [--no-superblocks] "
     "[--trace <f.json>] [--stats <f.ndjson>] [--stats-every <ms>]",
     "campaign; fuzzer = random|thehuzz|difuzz|psofuzz|hypfuzz|chatfuzz;\n"
     "workers = simulation threads per process (default 1, 0 = all cores);\n"
     "--dut runs every test on each listed backend (inorder|rocket|boom|\n"
     "ooo, comma-separated; default inorder) against one golden model;\n"
     "the first entry is primary (metrics). Stored in checkpoints;\n"
     "resume and corpus minimize keep the stored list.\n"
     "--procs fans the campaign out across <n> worker processes that\n"
     "dial the coordinator back over loopback (coordinator folds, workers\n"
     "simulate). Results are bit-identical for any worker/process count.\n"
     "--listen opens the fleet to other hosts: remote `chatfuzz worker\n"
     "--connect` processes can join or rejoin at any time (--procs 0 =\n"
     "external workers only); --token authenticates them (with neither,\n"
     "a random per-campaign token admits only the local workers);\n"
     "--port-file records the bound address (port 0 = ephemeral).\n"
     "SIGTERM drains gracefully: finish the batch, checkpoint, exit as\n"
     "paused.\n"
     "--checkpoint snapshots state + corpus to <dir> every <n> tests;\n"
     "--no-superblocks disables superblock dispatch (same results, slower);\n"
     "--trace writes a Chrome trace_event JSON of engine/ML/dist spans\n"
     "(load in Perfetto); --stats appends a metrics snapshot to <f.ndjson>\n"
     "every --stats-every ms (default 1000). Telemetry is out-of-band:\n"
     "results are byte-identical with it on or off"},
    {"fuzz", "--resume <dir> [workers] [--procs <n>] [--listen <host:port>] "
     "[--token <t>] [--port-file <f>] [--no-superblocks] "
     "[--trace <f.json>] [--stats <f.ndjson>] [--stats-every <ms>]",
     "continue a checkpointed campaign bit-identically to an\n"
     "uninterrupted run (workers: default = checkpoint's count,\n"
     "0 = all cores; --procs/--listen/--no-superblocks/--trace/--stats\n"
     "are per-run, never stored)"},
    {"corpus", "export <dir> <out.txt>", "store -> text corpus"},
    {"corpus", "import <dir> <in.txt>", "text corpus -> store"},
    {"corpus", "minimize <dir>",
     "replay each test as its campaign ran it (the sibling checkpoint's\n"
     "config and DUT list, at the test's archived index; defaults for a\n"
     "bare store) and keep only tests that add a coverage bin or carry a\n"
     "mismatch signature no earlier kept test carries; a second pass\n"
     "drops nothing and leaves the store's bytes as they are"},
    {"corpus", "stats <dir> [--json]",
     "entry/shard/byte totals, first-covered-bin attribution histogram;\n"
     "--json emits one machine-readable object instead of the table"},
    {"fleet", "status <host:port> [--token <t>]",
     "query a running fuzz --listen coordinator for live fleet state:\n"
     "per-peer pid/liveness/leases/results/heartbeat age plus the\n"
     "campaign metrics snapshot. Observation-only (never joins the fleet)"},
    {"solve", "<point-name>",
     "synthesize + verify a directed test for a coverage point"},
    {"worker", "--connect <host:port> [--token <t>] [--retries <n>]",
     "distributed-campaign worker: dials a fuzz --listen coordinator over\n"
     "TCP (fuzz --procs spawns its local ones the same way, over\n"
     "loopback) and redials with capped backoff until rejected"},
};

int usage() {
  std::string names;
  for (const CommandDoc& c : kCommands) {
    const std::string name(c.name);
    if (("|" + names + "|").find("|" + name + "|") != std::string::npos) {
      continue;
    }
    if (!names.empty()) names += '|';
    names += name;
  }
  std::fprintf(stderr, "usage: chatfuzz <%s> ...\n", names.c_str());
  for (const CommandDoc& c : kCommands) {
    std::fprintf(stderr, "  %s %s\n", c.name, c.args);
    const char* line = c.help;
    while (line != nullptr && *line != '\0') {
      const char* nl = std::strchr(line, '\n');
      const int len = nl != nullptr ? static_cast<int>(nl - line)
                                    : static_cast<int>(std::strlen(line));
      std::fprintf(stderr, "      %.*s\n", len, line);
      line = nl != nullptr ? nl + 1 : nullptr;
    }
  }
  return 2;
}

/// Construct a generator by CLI kind name (seed matches cmd_fuzz's). For
/// resume, the constructed instance is only a shell — restore_state()
/// replaces every stochastic component.
std::unique_ptr<core::InputGenerator> make_generator(const std::string& kind) {
  if (kind == "Random" || kind == "random") {
    return std::make_unique<baselines::RandomFuzzer>(1);
  }
  if (kind == "TheHuzz" || kind == "thehuzz") {
    return std::make_unique<baselines::TheHuzzFuzzer>(1);
  }
  if (kind == "DifuzzRTL" || kind == "difuzz") {
    return std::make_unique<baselines::DifuzzRtlFuzzer>(1);
  }
  if (kind == "PSOFuzz" || kind == "psofuzz") {
    return std::make_unique<baselines::PsoFuzzer>(1);
  }
  if (kind == "HyPFuzz" || kind == "hypfuzz") {
    return std::make_unique<baselines::HypFuzzer>(1);
  }
  if (kind == "ChatFuzz" || kind == "chatfuzz") {
    return std::make_unique<core::ChatFuzzGenerator>(core::ChatFuzzConfig{});
  }
  return nullptr;
}

void print_campaign_result(const core::CampaignResult& r) {
  std::printf("%s: %.2f%% condition coverage, %zu raw / %zu unique "
              "mismatches, %.2f paper-hours%s\n",
              r.fuzzer.c_str(), r.final_cov_percent, r.raw_mismatches,
              r.unique_mismatches, r.hours,
              r.completed ? "" : " (paused; resume with fuzz --resume)");
  std::printf("%zu points still have an uncovered bin\n", r.uncovered.size());
  for (const auto f : r.findings) {
    std::printf("  finding: %s\n", mismatch::finding_name(f));
  }
}

/// Load a text corpus and check the optional test index against it, saying
/// why on stderr when either fails.
std::optional<std::vector<core::Program>> load(
    const char* path, std::optional<std::size_t> which) {
  auto corpus = core::load_corpus(path);
  if (!corpus) {
    std::fprintf(stderr, "cannot load corpus: %s\n", path);
  } else if (which && *which >= corpus->size()) {
    std::fprintf(stderr, "%s has no test %zu (it holds %zu)\n", path, *which,
                 corpus->size());
    corpus.reset();
  }
  return corpus;
}

int cmd_asm(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto prog = riscv::assemble(buf.str(), &error);
  if (!prog) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    return 1;
  }
  std::fputs(core::corpus_to_text({*prog}).c_str(), stdout);
  return 0;
}

int cmd_disasm(const char* path, std::optional<std::size_t> which) {
  const auto corpus = load(path, which);
  if (!corpus) return 1;
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    if (which && *which != i) continue;
    std::printf("== test %zu (%zu instructions)\n", i, (*corpus)[i].size());
    std::fputs(riscv::disasm_program((*corpus)[i], 0x8000'0000ull).c_str(),
               stdout);
  }
  return 0;
}

int cmd_run(const char* path, std::optional<std::size_t> which) {
  const auto corpus = load(path, which);
  if (!corpus) return 1;
  const core::CampaignConfig cfg;  // the defaults `fuzz` runs with
  mismatch::MismatchDetector detector;
  detector.install_default_filters();
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    if (which && *which != i) continue;
    const mismatch::Report rep = core::replay_test((*corpus)[i], cfg);
    detector.accumulate(rep);
    std::printf("test %zu: %zu mismatches\n", i, rep.mismatches.size());
    for (const auto& m : rep.mismatches) {
      std::printf("  [%s] %s\n", mismatch::finding_name(m.finding),
                  m.signature.c_str());
      std::printf("     dut:  %s\n     gold: %s\n", m.dut.to_string().c_str(),
                  m.golden.to_string().c_str());
    }
  }
  std::fputs(core::render_mismatch_report(detector).c_str(), stdout);
  return 0;
}

int cmd_minimize(const char* path, std::size_t which) {
  const auto corpus = load(path, which);
  if (!corpus) return 1;
  const core::MinimizeResult r =
      core::minimize((*corpus)[which], core::CampaignConfig{});
  if (!r.reproduced) {
    std::printf("test %zu produces no mismatch; nothing to minimize\n", which);
    return 0;
  }
  std::printf("signature: %s\n", r.signature.c_str());
  std::printf("%zu -> %zu instructions (%zu co-simulations)\n",
              r.original_size, r.reduced.size(), r.tests_run);
  std::fputs(riscv::disasm_program(r.reduced, 0x8000'0000ull).c_str(), stdout);
  return 0;
}

core::CheckpointHook progress_hook() {
  return [](const core::CampaignPoint& p) {
    std::fprintf(stderr, "  %6zu tests  %.2f%% cond-cov\n", p.tests,
                 p.cond_cov_percent);
  };
}

extern "C" void handle_sigterm(int) {
  // Async-signal-safe by contract: just flips the drain flag. The engine
  // notices at the next batch boundary, checkpoints, and exits as paused.
  core::request_drain();
}

void install_drain_handler() {
  core::clear_drain();
  struct sigaction sa{};
  sa.sa_handler = handle_sigterm;
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// TCP fleet options shared by fuzz and resume.
struct NetArgs {
  const char* listen = nullptr;
  const char* token = nullptr;
  const char* port_file = nullptr;

  void apply(core::DistConfig* dist) const {
    if (listen != nullptr) dist->listen = listen;
    if (token != nullptr) dist->token = token;
    if (port_file != nullptr) dist->port_file = port_file;
  }
  /// Consume one argv pair; returns true when it was a net flag.
  bool parse(int argc, char** argv, int* i) {
    if (std::strcmp(argv[*i], "--listen") == 0 && *i + 1 < argc) {
      listen = argv[++*i];
    } else if (std::strcmp(argv[*i], "--token") == 0 && *i + 1 < argc) {
      token = argv[++*i];
    } else if (std::strcmp(argv[*i], "--port-file") == 0 && *i + 1 < argc) {
      port_file = argv[++*i];
    } else {
      return false;
    }
    return true;
  }
};

/// Telemetry options shared by fuzz and resume: per-run knobs, never
/// stored in checkpoints.
struct ObsArgs {
  const char* trace = nullptr;
  const char* stats = nullptr;
  std::optional<std::size_t> stats_every_ms;
  bool bad = false;

  /// Works on core::CampaignConfig and core::ResumeOptions alike (both
  /// carry the same trace_path/stats_path/stats_every_ms trio).
  template <typename Cfg>
  void apply(Cfg* cfg) const {
    if (trace != nullptr) cfg->trace_path = trace;
    if (stats != nullptr) cfg->stats_path = stats;
    if (stats_every_ms.has_value()) {
      cfg->stats_every_ms = static_cast<std::uint64_t>(*stats_every_ms);
    }
  }
  /// Consume one argv pair; returns true when it was a telemetry flag.
  bool parse(int argc, char** argv, int* i) {
    if (std::strcmp(argv[*i], "--trace") == 0 && *i + 1 < argc) {
      trace = argv[++*i];
    } else if (std::strcmp(argv[*i], "--stats") == 0 && *i + 1 < argc) {
      stats = argv[++*i];
    } else if (std::strcmp(argv[*i], "--stats-every") == 0 &&
               *i + 1 < argc) {
      stats_every_ms = parse_count(argv[++*i]);
      if (!stats_every_ms) bad = true;
    } else {
      return false;
    }
    return true;
  }
};

/// Parse a `--dut` comma list ("inorder,ooo") into CoreConfig presets.
/// Returns false (with a message) on an unknown or empty entry.
bool parse_dut_list(const char* list, std::vector<rtl::CoreConfig>* out) {
  const std::string s(list);
  for (std::size_t pos = 0; pos <= s.size();) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    const std::string name = s.substr(pos, end - pos);
    rtl::CoreConfig c;
    if (!rtl::dut_preset(name, c)) {
      std::fprintf(stderr,
                   "fuzz --dut: unknown backend \"%s\" "
                   "(expected inorder|rocket|boom|ooo)\n",
                   name.c_str());
      return false;
    }
    out->push_back(c);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

int cmd_fuzz(const char* which, std::size_t tests, std::size_t workers,
             std::size_t procs, const char* checkpoint_dir,
             std::size_t checkpoint_every, bool superblocks,
             const char* dut_list, const NetArgs& net, const ObsArgs& obs) {
  core::CampaignConfig cfg;
  cfg.num_tests = tests;
  cfg.checkpoint_every = std::max<std::size_t>(tests / 10, 10);
  cfg.num_workers = workers;
  cfg.dist.num_procs = procs;
  net.apply(&cfg.dist);
  obs.apply(&cfg);
  cfg.superblocks = superblocks;
  install_drain_handler();
  if (dut_list != nullptr && !parse_dut_list(dut_list, &cfg.duts)) return 2;
  if (checkpoint_dir != nullptr) {
    cfg.checkpoint_dir = checkpoint_dir;
    cfg.checkpoint_every_tests = checkpoint_every;
  }

  std::unique_ptr<core::InputGenerator> gen = make_generator(which);
  if (gen == nullptr) return usage();
  if (auto* chat = dynamic_cast<core::ChatFuzzGenerator*>(gen.get())) {
    std::fprintf(stderr, "training model (stages 1-2)...\n");
    chat->train_offline();
  }

  try {
    const core::CampaignResult r = core::run_campaign(*gen, cfg,
                                                      progress_hook());
    print_campaign_result(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_resume(const char* dir, std::optional<std::size_t> workers,
               std::size_t procs, bool superblocks, const NetArgs& net,
               const ObsArgs& obs) {
  install_drain_handler();
  // One read of what may be a large checkpoint: the loaded image hands the
  // stored fuzzer kind to make_generator() and then resumes directly.
  core::CheckpointData data;
  const ser::Status s = core::load_checkpoint(dir, &data);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot resume: %s\n", s.message().c_str());
    return 1;
  }
  std::unique_ptr<core::InputGenerator> gen = make_generator(data.fuzzer);
  if (gen == nullptr) {
    std::fprintf(stderr, "cannot resume: unknown fuzzer \"%s\" in %s\n",
                 data.fuzzer.c_str(), dir);
    return 1;
  }
  std::fprintf(stderr, "resuming %s campaign from %s\n", data.fuzzer.c_str(),
               dir);
  core::ResumeOptions opts;
  // No argument = keep the checkpoint's worker count. An explicit 0 means
  // "all cores", same as plain `fuzz` (ResumeOptions uses 0 as its own
  // keep-stored sentinel, so translate here).
  if (workers.has_value()) {
    opts.num_workers = *workers != 0
                           ? *workers
                           : std::max(1u, std::thread::hardware_concurrency());
  }
  opts.dist.num_procs = procs;
  net.apply(&opts.dist);
  obs.apply(&opts);
  opts.superblocks = superblocks;
  try {
    const core::CampaignResult r = core::resume_campaign(
        *gen, dir, std::move(data), opts, progress_hook());
    print_campaign_result(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot resume: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_corpus_export(const char* dir, const char* out_path) {
  corpus::CorpusStore store;
  const ser::Status s = store.open(dir);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  std::vector<core::Program> tests;
  tests.reserve(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    core::Program p;
    const ser::Status rs = store.read_program(i, &p);
    if (!rs.ok()) {
      std::fprintf(stderr, "%s\n", rs.message().c_str());
      return 1;
    }
    tests.push_back(std::move(p));
  }
  if (!core::save_corpus(out_path, tests)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("exported %zu tests from %s to %s\n", tests.size(), dir,
              out_path);
  return 0;
}

int cmd_corpus_import(const char* dir, const char* in_path) {
  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "cannot load corpus: %s\n", in_path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  // Lenient parse: one corrupt entry must not sink a whole (possibly
  // hand-edited) import. Bad blocks are skipped, reported individually,
  // and parked verbatim in a quarantine file.
  const core::CorpusParse parsed = core::corpus_from_text_lenient(buf.str());
  for (const std::string& err : parsed.errors) {
    std::fprintf(stderr, "corpus import: skipping %s\n", err.c_str());
  }
  if (parsed.bad_blocks > 0) {
    const std::string qpath = std::string(in_path) + ".quarantine";
    std::ofstream q(qpath, std::ios::trunc);
    if (q) {
      q << "# chatfuzz test corpus v1 (quarantined on import)\n"
        << parsed.quarantine;
      std::fprintf(stderr,
                   "corpus import: %zu corrupt block(s) written to %s\n",
                   parsed.bad_blocks, qpath.c_str());
    } else {
      std::fprintf(stderr, "corpus import: cannot write quarantine %s\n",
                   qpath.c_str());
    }
  }
  corpus::CorpusStore store;
  ser::Status s = store.open(dir);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  const std::size_t before = store.size();
  for (const core::Program& p : parsed.tests) {
    corpus::StoreEntryMeta meta;  // imported tests carry no attribution
    meta.test_index = store.size();
    s = store.append(p, meta);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      return 1;
    }
  }
  s = store.flush();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  std::printf("imported %zu tests into %s (%zu total, %zu skipped)\n",
              store.size() - before, dir, store.size(), parsed.bad_blocks);
  return 0;
}

/// Corpus minimization: re-simulate every stored test in order and keep
/// only those that still contribute — the classic cmin pass. Each test
/// replays as its campaign ran it, on the campaign's own simulation stack.
/// A test is kept when it covers a condition bin no earlier kept test
/// covered, or carries a post-filter mismatch signature (the detector's
/// dedup key, what "unique mismatches" counts) no earlier kept test
/// carries; a mismatch-only test whose signatures are all archived already
/// is dropped. The store is rewritten with fresh attribution. Dropped tests
/// add neither bins nor signatures, so a second pass keeps every test and
/// rewrites the same bytes.
int cmd_corpus_minimize(const char* dir) {
  corpus::CorpusStore store;
  ser::Status s = store.open(dir);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  // A campaign store lives at <campaign>/corpus: replay under the campaign's
  // whole config from the sibling checkpoint (DUT list, platform,
  // randomize_regs, seed). Bare stores (corpus import into a fresh dir)
  // replay under the defaults `fuzz` runs with.
  core::CampaignConfig cfg;
  const std::string parent = std::filesystem::path(dir).parent_path().string();
  if (!parent.empty() && core::peek_checkpoint(parent, nullptr, &cfg).ok()) {
    std::fprintf(stderr, "using campaign config from %s\n",
                 core::checkpoint_path(parent).c_str());
  }
  core::SimStack stack(cfg, false);
  core::TestArtifact art;
  std::vector<bool> covered(stack.db.num_bins());
  struct Kept {
    core::Program program;
    corpus::StoreEntryMeta meta;
  };
  std::vector<Kept> kept;
  std::unordered_set<std::string> kept_signatures;
  std::size_t signature_dropped = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    core::Program p;
    s = store.read_program(i, &p);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      return 1;
    }
    corpus::StoreEntryMeta meta = store.meta(i);
    core::run_one(stack, cfg, false, p, meta.test_index, art);
    meta.new_bins.clear();
    for (const cov::BinDelta& d : art.cond_bins) {
      if (!covered[d.bin]) {
        covered[d.bin] = true;
        meta.new_bins.push_back(d.bin);
      }
    }
    meta.standalone_bins = static_cast<std::uint32_t>(art.cond_bins.size());
    meta.incremental_bins = static_cast<std::uint32_t>(meta.new_bins.size());
    meta.mismatches = static_cast<std::uint32_t>(art.report.mismatches.size());
    const bool new_signature = std::any_of(
        art.report.mismatches.begin(), art.report.mismatches.end(),
        [&](const mismatch::Mismatch& m) {
          return kept_signatures.count(m.signature) == 0;
        });
    if (meta.incremental_bins > 0 || new_signature) {
      for (const mismatch::Mismatch& m : art.report.mismatches) {
        kept_signatures.insert(m.signature);
      }
      kept.push_back({std::move(p), std::move(meta)});
    } else if (meta.mismatches > 0) {
      ++signature_dropped;  // mismatch-only, every signature already kept
    }
  }
  const std::size_t original = store.size();
  s = store.truncate(0);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  for (const Kept& k : kept) {
    s = store.append(k.program, k.meta);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      return 1;
    }
  }
  s = store.flush();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  std::printf("minimized %s: %zu -> %zu tests "
              "(%zu signature-duplicate tests dropped)\n",
              dir, original, store.size(), signature_dropped);
  return 0;
}

/// Store introspection without re-simulation, straight off the index (the
/// collection and both renderings live in corpus/stats.h so tests can
/// round-trip the JSON without spawning the CLI).
int cmd_corpus_stats(const char* dir, bool json) {
  corpus::CorpusStore store;
  const ser::Status s = store.open(dir);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  corpus::StoreStats stats;
  if (const ser::Status st = corpus::collect_store_stats(store, &stats);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  const std::string text = json ? corpus::store_stats_to_json(stats)
                                : corpus::render_store_stats(stats);
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

int cmd_solve(const char* point_name) {
  const sim::Platform plat{.max_steps = 2048};
  baselines::PointSolver solver(plat);
  if (solver.provably_unreachable(point_name)) {
    std::printf("%s: classified unreachable in this testbench\n", point_name);
    return 0;
  }
  cov::UncoveredPoint up;
  up.name = point_name;
  up.missing_true = true;
  const auto prog = solver.solve(up);
  if (!prog) {
    std::fprintf(stderr, "%s: no solver template\n", point_name);
    return 1;
  }
  std::fputs(riscv::disasm_program(*prog, plat.ram_base).c_str(), stdout);

  // Verify: run on the DUT model and report whether the true bin was hit.
  cov::CoverageDB db;
  rtl::RtlCore dut(rtl::CoreConfig::rocket(), db, plat);
  dut.reset(*prog);
  dut.run();
  for (std::size_t i = 0; i < db.num_points(); ++i) {
    if (db.point_name(static_cast<cov::PointId>(i)) == point_name) {
      std::printf("\n%s true bin: %s\n", point_name,
                  db.bin_covered(2 * i + 1) ? "COVERED" : "not covered");
      return db.bin_covered(2 * i + 1) ? 0 : 1;
    }
  }
  std::printf("\n(point not present in the RocketCore build)\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode: `chatfuzz worker --connect` is also what the dist
  // coordinator re-execs; it must win before any other parsing.
  if (const auto rc = dist::maybe_worker_main(argc, argv)) return *rc;
  if (argc < 2) return usage();
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "asm") == 0 && argc >= 3) return cmd_asm(argv[2]);
  if ((std::strcmp(cmd, "disasm") == 0 || std::strcmp(cmd, "run") == 0 ||
       std::strcmp(cmd, "minimize") == 0) &&
      argc >= 3) {
    // The test index is strict: "abc" or "-7" is a usage error, never test
    // 0 or "every test".
    std::optional<std::size_t> which;
    if (argc >= 4 && !(which = parse_count(argv[3]))) return usage();
    if (std::strcmp(cmd, "disasm") == 0) return cmd_disasm(argv[2], which);
    if (std::strcmp(cmd, "run") == 0) return cmd_run(argv[2], which);
    if (!which) return usage();
    return cmd_minimize(argv[2], *which);
  }
  if (std::strcmp(cmd, "fuzz") == 0 && argc >= 4 &&
      std::strcmp(argv[2], "--resume") == 0) {
    std::optional<std::size_t> workers;  // absent = checkpoint's value
    std::size_t procs = 1;
    bool superblocks = true;
    NetArgs net;
    ObsArgs obs;
    bool bad = false;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--procs") == 0 && i + 1 < argc) {
        const auto p = parse_count(argv[++i]);
        if (!p) bad = true;
        else procs = *p;
      } else if (net.parse(argc, argv, &i)) {
      } else if (obs.parse(argc, argv, &i)) {
      } else if (std::strcmp(argv[i], "--no-superblocks") == 0) {
        superblocks = false;
      } else if (i == 4 && argv[i][0] != '-') {
        workers = parse_count(argv[i]);
        if (!workers) bad = true;
      } else {
        bad = true;
      }
    }
    if (bad || obs.bad) {
      std::fprintf(stderr, "fuzz --resume: bad arguments; see usage\n");
      return usage();
    }
    return cmd_resume(argv[3], workers, procs, superblocks, net, obs);
  }
  if (std::strcmp(cmd, "fuzz") == 0 && argc >= 4) {
    const auto tests = parse_count(argv[3]);
    std::optional<std::size_t> workers(1);
    std::size_t procs = 1;
    const char* checkpoint_dir = nullptr;
    std::size_t checkpoint_every = 0;
    const char* dut_list = nullptr;
    bool superblocks = true;
    NetArgs net;
    ObsArgs obs;
    bool bad = false;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
        checkpoint_dir = argv[++i];
      } else if (std::strcmp(argv[i], "--dut") == 0 && i + 1 < argc) {
        dut_list = argv[++i];
      } else if (std::strcmp(argv[i], "--every") == 0 && i + 1 < argc) {
        const auto every = parse_count(argv[++i]);
        if (!every) bad = true;
        else checkpoint_every = *every;
      } else if (std::strcmp(argv[i], "--procs") == 0 && i + 1 < argc) {
        const auto p = parse_count(argv[++i]);
        if (!p) bad = true;
        else procs = *p;
      } else if (net.parse(argc, argv, &i)) {
      } else if (obs.parse(argc, argv, &i)) {
      } else if (std::strcmp(argv[i], "--no-superblocks") == 0) {
        superblocks = false;
      } else if (i == 4 && argv[i][0] != '-') {
        workers = parse_count(argv[i]);
      } else {
        bad = true;
      }
    }
    if (!tests || !workers || bad || obs.bad) {
      std::fprintf(stderr, "fuzz: bad arguments; see usage\n");
      return usage();
    }
    return cmd_fuzz(argv[2], *tests, *workers, procs, checkpoint_dir,
                    checkpoint_every, superblocks, dut_list, net, obs);
  }
  if (std::strcmp(cmd, "corpus") == 0 && argc >= 4) {
    if (std::strcmp(argv[2], "export") == 0 && argc >= 5) {
      return cmd_corpus_export(argv[3], argv[4]);
    }
    if (std::strcmp(argv[2], "import") == 0 && argc >= 5) {
      return cmd_corpus_import(argv[3], argv[4]);
    }
    if (std::strcmp(argv[2], "minimize") == 0) {
      return cmd_corpus_minimize(argv[3]);
    }
    if (std::strcmp(argv[2], "stats") == 0) {
      const char* dir = nullptr;
      bool json = false, bad = false;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json = true;
        else if (dir == nullptr) dir = argv[i];
        else bad = true;
      }
      if (dir == nullptr || bad) return usage();
      return cmd_corpus_stats(dir, json);
    }
    return usage();
  }
  if (std::strcmp(cmd, "fleet") == 0 && argc >= 4 &&
      std::strcmp(argv[2], "status") == 0) {
    const char* token = "";
    bool bad = false;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--token") == 0 && i + 1 < argc) {
        token = argv[++i];
      } else {
        bad = true;
      }
    }
    if (bad) return usage();
    return dist::fleet_status_main(argv[3], token, stdout);
  }
  if (std::strcmp(cmd, "solve") == 0 && argc >= 3) return cmd_solve(argv[2]);
  return usage();
}
