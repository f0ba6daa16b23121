// Test-corpus persistence and offline re-simulation: save and reload fuzzing
// inputs (hex text format, one program per block) and mismatch reports, and
// replay or minimize an archived test. Real campaigns persist every input
// that found new coverage or a mismatch so bugs can be replayed and
// minimized later; this is that plumbing. Replay and minimize run the
// campaign's own SimStack and run_one under the campaign's CampaignConfig,
// so an archived test re-simulates exactly as the campaign ran it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/generator.h"
#include "mismatch/detect.h"

namespace chatfuzz::core {

/// Serialize programs to the text corpus format:
///   == test 0
///   00500513
///   00b60633
/// Comment lines start with '#'.
std::string corpus_to_text(const std::vector<Program>& tests);

/// Parse result: good blocks survive, bad blocks are skipped and reported
/// instead of failing the whole file.
struct CorpusParse {
  std::vector<Program> tests;   // the well-formed blocks, in file order
  std::size_t bad_blocks = 0;   // blocks dropped for malformed words
  /// The dropped blocks verbatim, each preceded by a '# dropped: …'
  /// comment — valid corpus-format text, written next to the import as a
  /// quarantine file so nothing is silently discarded.
  std::string quarantine;
  std::vector<std::string> errors;  // one "test N, line M: why" per drop
};

/// Parse the text corpus format, skipping individually corrupt blocks: a
/// bad word poisons only its own `== test` block, never the import. A word
/// is 1-8 hex digits, optionally followed by the '\r' of a CRLF line; signs,
/// "0x" prefixes, whitespace and longer values are malformed.
CorpusParse corpus_from_text_lenient(const std::string& text);

/// The lenient parse, failing on the first dropped block: std::nullopt on
/// malformed input, with `error` receiving its "test N, line M: why".
std::optional<std::vector<Program>> corpus_from_text(const std::string& text,
                                                     std::string* error = nullptr);

/// Convenience file I/O (returns false on I/O error).
bool save_corpus(const std::string& path, const std::vector<Program>& tests);
std::optional<std::vector<Program>> load_corpus(const std::string& path);

/// Human-readable mismatch report for a campaign (the artifact handed to
/// the verification engineer for the paper's "manual inspection" step).
std::string render_mismatch_report(const mismatch::MismatchDetector& detector);

/// Re-simulate one test as a campaign under `cfg` ran global test
/// `test_index`: every DUT of effective_duts(cfg) in lockstep with the golden
/// model on cfg.platform, with that test's register file when
/// cfg.randomize_regs is set. Returns the report the campaign recorded.
mismatch::Report replay_test(const Program& test, const CampaignConfig& cfg,
                             std::uint64_t test_index = 0);

// Test-case minimization: given a fuzz input whose replay mismatches, shrink
// it to a minimal reproducer while preserving the *same* mismatch signature.
// This is the step between "the fuzzer found 6K mismatches" and the paper's
// "detailed manual analysis" — engineers debug the 4-instruction repro, not
// the 30-instruction fuzz soup.
struct MinimizeResult {
  Program reduced;
  std::string signature;     // the preserved mismatch signature
  std::size_t original_size = 0;
  std::size_t tests_run = 0;  // co-simulations spent minimizing
  bool reproduced = false;    // false: input did not mismatch at all
};

/// Shrink `test` while its first surviving mismatch under replay_test(…,
/// cfg, test_index) keeps the same signature. Uses ddmin-style chunk removal
/// followed by single-instruction removal and NOP (addi x0,x0,0)
/// substitution, on one simulation stack; deterministic.
MinimizeResult minimize(const Program& test, const CampaignConfig& cfg,
                        std::uint64_t test_index = 0);

/// The signature of the first surviving mismatch of `test` under
/// replay_test(…, cfg, test_index), or "" if the run produces none.
std::string first_signature(const Program& test, const CampaignConfig& cfg,
                            std::uint64_t test_index = 0);

}  // namespace chatfuzz::core
