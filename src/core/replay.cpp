#include "core/replay.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/sim_worker.h"
#include "riscv/encode.h"

namespace chatfuzz::core {

std::string corpus_to_text(const std::vector<Program>& tests) {
  std::string out = "# chatfuzz test corpus v1\n";
  char buf[32];
  for (std::size_t i = 0; i < tests.size(); ++i) {
    std::snprintf(buf, sizeof buf, "== test %zu\n", i);
    out += buf;
    for (std::uint32_t w : tests[i]) {
      std::snprintf(buf, sizeof buf, "%08x\n", w);
      out += buf;
    }
  }
  return out;
}

namespace {

/// One corpus word: 1-8 hex digits, optionally followed by a '\r'.
/// std::from_chars takes no sign, prefix or whitespace, and eight digits
/// cannot overflow 32 bits.
bool parse_word(std::string_view line, std::uint32_t* word) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty() || line.size() > 8) return false;
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(line.data(), end, *word, 16);
  return ec == std::errc() && ptr == end;
}

}  // namespace

CorpusParse corpus_from_text_lenient(const std::string& text) {
  CorpusParse out;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t block_no = 0;

  Program block;
  std::string block_text;   // the block's raw lines, for quarantine
  std::string block_error;  // first malformed word, empty = block is good
  bool have_block = false;

  const auto finish_block = [&] {
    if (!have_block) return;
    if (block_error.empty()) {
      out.tests.push_back(std::move(block));
    } else {
      ++out.bad_blocks;
      out.errors.push_back(block_error);
      out.quarantine += "# dropped: " + block_error + "\n";
      out.quarantine += block_text;
    }
    block.clear();
    block_text.clear();
    block_error.clear();
    have_block = false;
  };
  const auto start_block = [&] {
    have_block = true;
    block_text = "== test " + std::to_string(block_no++) + "\n";
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("==", 0) == 0) {
      finish_block();
      start_block();
      continue;
    }
    if (!have_block) start_block();  // headerless first block
    block_text += line;
    block_text += '\n';
    if (!block_error.empty()) continue;  // already poisoned; keep collecting
    std::uint32_t word = 0;
    if (parse_word(line, &word)) {
      block.push_back(word);
    } else {
      block_error = "test " + std::to_string(block_no - 1) + ", line " +
                    std::to_string(line_no) + ": bad hex word";
    }
  }
  finish_block();
  return out;
}

std::optional<std::vector<Program>> corpus_from_text(const std::string& text,
                                                     std::string* error) {
  CorpusParse parsed = corpus_from_text_lenient(text);
  if (parsed.bad_blocks > 0) {
    if (error != nullptr) *error = parsed.errors.front();
    return std::nullopt;
  }
  return std::move(parsed.tests);
}

bool save_corpus(const std::string& path, const std::vector<Program>& tests) {
  std::ofstream out(path);
  if (!out) return false;
  out << corpus_to_text(tests);
  return static_cast<bool>(out);
}

std::optional<std::vector<Program>> load_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return corpus_from_text(buf.str());
}

std::string render_mismatch_report(const mismatch::MismatchDetector& detector) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "mismatch summary: raw=%zu post-filter=%zu unique=%zu\n",
                detector.total_raw(), detector.total_post_filter(),
                detector.unique_count());
  out += buf;
  for (const auto& [sig, count] : detector.unique_signatures()) {
    std::snprintf(buf, sizeof buf, "  %6zu x %s\n", count, sig.c_str());
    out += buf;
  }
  out += "findings:\n";
  for (const mismatch::Finding f : detector.findings_seen()) {
    std::snprintf(buf, sizeof buf, "  - %s\n", mismatch::finding_name(f));
    out += buf;
  }
  return out;
}

namespace {

/// The campaign's simulation stack, re-armed by run_one for every test it
/// replays (no metrics suite: replay needs only the mismatch report).
struct Replayer {
  explicit Replayer(const CampaignConfig& c) : cfg(c), stack(c, false) {}

  const mismatch::Report& run(const Program& test, std::uint64_t test_index) {
    run_one(stack, cfg, false, test, test_index, art);
    return art.report;
  }

  const CampaignConfig& cfg;
  SimStack stack;
  TestArtifact art;
};

std::string first_of(const mismatch::Report& rep) {
  return rep.mismatches.empty() ? std::string()
                                : rep.mismatches.front().signature;
}

constexpr std::size_t kMaxRounds = 8;  // delta-debugging passes

}  // namespace

mismatch::Report replay_test(const Program& test, const CampaignConfig& cfg,
                             std::uint64_t test_index) {
  return Replayer(cfg).run(test, test_index);
}

std::string first_signature(const Program& test, const CampaignConfig& cfg,
                            std::uint64_t test_index) {
  return first_of(Replayer(cfg).run(test, test_index));
}

MinimizeResult minimize(const Program& test, const CampaignConfig& cfg,
                        std::uint64_t test_index) {
  Replayer replayer(cfg);
  MinimizeResult result;
  const auto signature = [&](const Program& candidate) {
    ++result.tests_run;
    return first_of(replayer.run(candidate, test_index));
  };
  result.original_size = test.size();
  result.signature = signature(test);
  if (result.signature.empty()) {
    result.reduced = test;
    return result;  // nothing to preserve
  }
  result.reproduced = true;

  Program current = test;
  const auto still_reproduces = [&](const Program& candidate) {
    return signature(candidate) == result.signature;
  };

  // Phase 1: ddmin-style chunk removal with shrinking chunk sizes.
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    bool any_removed = false;
    for (std::size_t chunk = std::max<std::size_t>(current.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
      for (std::size_t at = 0; at + chunk <= current.size();) {
        Program candidate = current;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(at),
                        candidate.begin() + static_cast<std::ptrdiff_t>(at + chunk));
        if (!candidate.empty() && still_reproduces(candidate)) {
          current = std::move(candidate);
          any_removed = true;
          // retry same position (new content slid in)
        } else {
          at += chunk;
        }
      }
      if (chunk == 1) break;
    }
    if (!any_removed) break;
  }

  // Phase 2: NOP substitution — instructions that must occupy space (branch
  // shapes) but whose behaviour is irrelevant become canonical NOPs.
  const std::uint32_t kNop = riscv::enc_i(riscv::Opcode::kAddi, 0, 0, 0);
  for (std::size_t at = 0; at < current.size(); ++at) {
    if (current[at] == kNop) continue;
    Program candidate = current;
    candidate[at] = kNop;
    if (still_reproduces(candidate)) current = std::move(candidate);
  }

  result.reduced = std::move(current);
  return result;
}

}  // namespace chatfuzz::core
