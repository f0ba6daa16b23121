// Mismatch Detector (§IV-A of the paper): differential comparison of the
// DUT trace against the golden-model trace, signature-based deduplication
// (the paper's "automated filtration" that reduced ~5,866 raw mismatches to
// >100 unique ones), verification-engineer filter rules for known false
// positives, and classification of the paper's five findings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "isasim/trace.h"
#include "util/serialize.h"

namespace chatfuzz::mismatch {

enum class Kind {
  kStaleInstr,   // same pc, different instruction bits (I$ incoherence)
  kPcDivergence, // control flow diverged
  kRdPresence,   // one side has a destination write the other lacks
  kRdValue,      // both wrote rd, values differ
  kMemPresence,  // one side has a memory access the other lacks
  kMemValue,     // memory address/value/size differ
  kException,    // different (or one-sided) exception cause
  kLength,       // one trace ended early with no earlier divergence
};

const char* kind_name(Kind k);

/// The paper's named findings, used to label classified mismatches.
enum class Finding {
  kBug1CacheCoherency,  // CWE-1202
  kBug2TracerMulDiv,    // CWE-440
  kF1ExceptionPriority,
  kF2AmoIntoX0,
  kF3X0TraceWrite,
  kOther,
};

const char* finding_name(Finding f);

struct Mismatch {
  Kind kind;
  std::size_t index = 0;        // trace position
  sim::CommitRecord dut;        // record from the DUT (RTL model)
  sim::CommitRecord golden;     // record from the golden model
  std::string signature;        // dedup key
  Finding finding = Finding::kOther;
  /// Which DUT of a multi-DUT campaign diverged (position in the campaign's
  /// DUT list). 0 for single-DUT runs; signature_of folds non-zero ordinals
  /// into the signature so the same root cause on different backends stays
  /// distinct in the campaign-wide tally.
  std::size_t dut_index = 0;
};

/// A filter rule suppresses known-benign mismatches (§IV-A: engineers "add
/// filters ... to filter out most of the false positive mismatches").
/// Returns true if the mismatch should be dropped.
using FilterRule = std::function<bool(const Mismatch&)>;

/// Built-in rule: reads of free-running counter CSRs (cycle/time/mcycle)
/// legitimately differ between an ISS and RTL; drop rd-value mismatches on
/// them.
FilterRule counter_csr_filter();

struct Report {
  std::vector<Mismatch> mismatches;      // post-filter
  std::size_t raw_count = 0;             // pre-filter mismatch records
  std::size_t filtered_count = 0;        // dropped by filter rules
};

/// Signature-level Report encoding — what a distributed campaign worker
/// ships back (src/dist/): counters plus consecutive runs of identical
/// (kind, finding, signature) records collapsed to one entry with a count.
/// The reconstructed records carry exactly those three fields (the commit
/// records are left empty), which is everything campaign-wide accumulation
/// consumes — accumulate() tallies per-signature counts and findings, and
/// the engine's fold only reads mismatches.size() — so the folded
/// signature DB is byte-identical to a local run's at a fraction of the
/// frame bytes. Run-length grouping preserves record order, so a signature
/// whose classification differs between instances resolves to the same
/// last-writer-wins finding either way.
void write_report_summary(ser::Writer& w, const Report& report);
bool read_report_summary(ser::Reader& r, Report& out);

class MismatchDetector {
 public:
  MismatchDetector() = default;

  void add_filter(FilterRule rule) { filters_.push_back(std::move(rule)); }
  /// Installs the default filter set used by the campaigns.
  void install_default_filters() { add_filter(counter_csr_filter()); }

  /// Compare one test input's two traces. Comparison stops at the first
  /// control-flow divergence (everything after is noise from the same root
  /// cause), matching how trace diffing is done in practice.
  Report compare(const sim::Trace& dut, const sim::Trace& golden) const;

  /// Finish a raw mismatch record: fills signature and finding, then runs
  /// the filter rules. Returns false when a rule suppresses it. Shared by
  /// compare() and the streaming LockstepComparator so both emit identical
  /// Report contents.
  bool finalize(Mismatch& m) const;

  /// Accumulate a report into the campaign-wide tally.
  void accumulate(const Report& report);

  // Campaign-wide statistics (the paper's §V-B numbers).
  std::size_t total_raw() const { return total_raw_; }
  std::size_t total_post_filter() const { return total_post_filter_; }
  std::size_t unique_count() const { return unique_signatures_.size(); }
  const std::unordered_map<std::string, std::size_t>& unique_signatures() const {
    return unique_signatures_;
  }
  /// Distinct findings observed so far (classification labels).
  std::unordered_set<Finding> findings_seen() const;

  /// Snapshot / restore the campaign-wide tally (signature database and
  /// counters; filter rules are code, reinstalled by the owner). Signatures
  /// are serialized in sorted order so the bytes do not depend on hash-map
  /// iteration order.
  void save_state(ser::Writer& w) const;
  bool restore_state(ser::Reader& r);

 private:
  std::vector<FilterRule> filters_;
  std::size_t total_raw_ = 0;
  std::size_t total_post_filter_ = 0;
  std::unordered_map<std::string, std::size_t> unique_signatures_;
  std::unordered_map<std::string, Finding> signature_findings_;

  friend struct DetectorTestPeer;
};

/// Classify a mismatch against the paper's known findings.
Finding classify(const Mismatch& m);

/// Build the dedup signature for a mismatch: kind + mnemonic + exception
/// names + which side carries the extra effect. Instances of the same root
/// cause collapse to one signature.
std::string signature_of(const Mismatch& m);

}  // namespace chatfuzz::mismatch
