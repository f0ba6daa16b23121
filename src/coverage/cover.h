// Condition-coverage database, modeled on what Synopsys VCS reports for
// `-cm cond`: every boolean condition in the DUT contributes one *point*
// with two *bins* (evaluated-true, evaluated-false). Coverage percentage is
// covered-bins / total-bins — the metric all paper results are stated in.
//
// The DB also tracks per-test ("stand-alone") hit sets so the Coverage
// Calculator (§IV-B of the paper) can compute stand-alone, incremental and
// total coverage per test input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/serialize.h"

namespace chatfuzz::cov {

using PointId = std::uint32_t;

class CoverageDB {
 public:
  /// Register a condition point. Call once per static condition at model
  /// construction; returns the id used by hit().
  PointId register_cond(std::string name);

  /// Record one evaluation of a condition. Sets the cumulative bin and the
  /// current test's stand-alone bin, marking first touches in the dirty-bin
  /// bitmaps so every per-test sweep (begin_test/reset_hits/extraction) is
  /// O(dirty words), not O(all registered bins), and the covered counts are
  /// running counters.
  void hit(PointId id, bool outcome) {
    const std::size_t bin = 2 * static_cast<std::size_t>(id) + (outcome ? 1 : 0);
    if (hits_[bin]++ == 0) {
      dirty_[bin >> 6] |= 1ull << (bin & 63);
      ++covered_;
    }
    const std::uint64_t mask = 1ull << (bin & 63);
    std::uint64_t& w = test_dirty_[bin >> 6];
    if ((w & mask) == 0) {
      w |= mask;
      ++test_covered_;
    }
  }

  /// Bulk accumulation (coverage merging); does not touch the per-test set.
  void add_hits(PointId id, bool outcome, std::uint64_t n) {
    add_bin_hits(2 * static_cast<std::size_t>(id) + (outcome ? 1 : 0), n);
  }

  /// Deferred-instrumentation fold: record `n` evaluations of a condition
  /// in one call. Cumulative counters AND the per-test stand-alone set end
  /// up exactly as `n` individual hit() calls would leave them.
  void hit_n(PointId id, bool outcome, std::uint64_t n) {
    if (n == 0) return;
    const std::size_t bin = 2 * static_cast<std::size_t>(id) + (outcome ? 1 : 0);
    add_bin_hits(bin, n);
    const std::uint64_t mask = 1ull << (bin & 63);
    std::uint64_t& w = test_dirty_[bin >> 6];
    if ((w & mask) == 0) {
      w |= mask;
      ++test_covered_;
    }
  }

  /// Raw-bin accumulation: `bin` uses this DB's own bin indexing (the same
  /// one bin_hits() reads), so sparse slices round-trip without re-deriving
  /// the point/outcome encoding elsewhere.
  void add_bin_hits(std::size_t bin, std::uint64_t n) {
    if (n == 0) return;
    if (hits_[bin] == 0) {
      dirty_[bin >> 6] |= 1ull << (bin & 63);
      ++covered_;
    }
    hits_[bin] += n;
  }

  /// Mark the start of a new test input: clears the stand-alone hit set.
  void begin_test();

  std::size_t num_points() const { return names_.size(); }
  std::size_t num_bins() const { return hits_.size(); }
  const std::string& point_name(PointId id) const { return names_[id]; }
  std::uint64_t bin_hits(std::size_t bin) const { return hits_[bin]; }
  bool bin_covered(std::size_t bin) const { return hits_[bin] != 0; }
  bool test_bin_hit(std::size_t bin) const {
    return (test_dirty_[bin >> 6] & (1ull << (bin & 63))) != 0;
  }

  /// Cumulative covered-bin count (running counter, O(1)).
  std::size_t total_covered() const { return covered_; }
  /// Covered-bin count of the current test alone (running counter, O(1)).
  std::size_t test_covered() const { return test_covered_; }
  /// Cumulative coverage as a percentage of all bins (O(1)).
  double total_percent() const;

  /// Dirty-bin bitmap of the cumulative side: one bit per bin whose hit
  /// count is nonzero. Word-ordered bitmap walks give extraction in
  /// ascending bin order with no sorting; for a per-test worker shard
  /// (reset before each test) the set bits are exactly the bins the test
  /// touched.
  const std::vector<std::uint64_t>& dirty_words() const { return dirty_; }

  /// Reset cumulative hit counts (new campaign), keeping registered points.
  void reset_hits();

  /// Snapshot the cumulative hit counters (per-test state is transient and
  /// not captured; checkpoints happen between tests). The registered point
  /// layout travels as a fingerprint, not as data: restore() requires a DB
  /// whose registration sequence matches the saved one and fails cleanly
  /// otherwise.
  void save_state(ser::Writer& w) const;
  bool restore_state(ser::Reader& r);

 private:
  std::uint64_t layout_fingerprint() const;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> hits_;  // 2 bins per point
  // Dirty-bin bitmaps + running covered counters. Invariants every mutator
  // maintains: bit b of dirty_ is set iff hits_[b] != 0, covered_ counts
  // the set bits of dirty_, and test_covered_ those of test_dirty_ (the
  // stand-alone hit set, cleared by begin_test).
  std::vector<std::uint64_t> dirty_;
  std::vector<std::uint64_t> test_dirty_;
  std::size_t covered_ = 0;
  std::size_t test_covered_ = 0;
};

/// Per-test values the paper's Coverage Calculator produces (§IV-B).
struct TestCoverage {
  std::size_t standalone_bins = 0;   // bins this test hit
  std::size_t incremental_bins = 0;  // bins newly covered vs. before the test
  std::size_t total_bins = 0;        // cumulative covered bins after the test
  std::size_t universe_bins = 0;     // all bins in the DUT
  double standalone_percent() const {
    return universe_bins ? 100.0 * static_cast<double>(standalone_bins) /
                               static_cast<double>(universe_bins)
                         : 0.0;
  }
  double total_percent() const {
    return universe_bins ? 100.0 * static_cast<double>(total_bins) /
                               static_cast<double>(universe_bins)
                         : 0.0;
  }
};

/// Coverage Calculator: wraps a CoverageDB and computes the three per-test
/// values. Usage per test: calc.begin_test(); <run DUT>; auto tc = calc.end_test();
class CoverageCalculator {
 public:
  explicit CoverageCalculator(CoverageDB& db) : db_(db) {}

  void begin_test() {
    before_total_ = db_.total_covered();
    db_.begin_test();
  }

  TestCoverage end_test() const {
    TestCoverage tc;
    tc.standalone_bins = db_.test_covered();
    tc.total_bins = db_.total_covered();
    tc.incremental_bins = tc.total_bins - before_total_;
    tc.universe_bins = db_.num_bins();
    return tc;
  }

 private:
  CoverageDB& db_;
  std::size_t before_total_ = 0;
};

/// Control-register coverage as used by DifuzzRTL: the DUT registers its
/// mux-select/control registers; coverage is the number of distinct packed
/// control-state values observed. Membership is exact (the backing table
/// grows as needed): counts must not depend on insertion order, or sharded
/// campaigns would stop being bit-identical across worker counts.
class CtrlRegCoverage {
 public:
  /// Record one observed control state. Returns true if it was new.
  bool observe(std::uint64_t packed_state);
  std::size_t distinct_states() const { return count_; }
  void begin_test() { test_new_ = 0; }
  std::size_t test_new_states() const { return test_new_; }
  void reset();

  /// Sharded campaigns: while set, every state that is new to THIS set is
  /// appended to `rec` (raw packed value, observation order). A campaign
  /// worker records its per-test new states here and the aggregator replays
  /// them into the campaign-wide set in canonical test order, which makes
  /// distinct/new-state counts independent of how tests were sharded.
  void set_recorder(std::vector<std::uint64_t>* rec) { recorder_ = rec; }

  /// Snapshot the distinct-state set. Keys are serialized sorted, so the
  /// bytes are identical no matter what order states were observed in —
  /// the property that keeps resumed sharded campaigns byte-stable.
  void save_state(ser::Writer& w) const;
  bool restore_state(ser::Reader& r);

 private:
  /// Insert a pre-hashed key (grow + probe, bumps count_); returns true if
  /// the key was new. Shared by observe() and restore_state().
  bool insert_key(std::uint64_t key);
  // Open-addressed set keyed by the state hash; we only need cardinality.
  std::vector<std::uint64_t> seen_;
  std::size_t count_ = 0;
  std::size_t test_new_ = 0;
  std::vector<std::uint64_t>* recorder_ = nullptr;
};

/// Serialize a coverage DB to the textual report format the Coverage
/// Calculator parses (stands in for the VCS report flow of §IV-B).
std::string format_report(const CoverageDB& db);

/// Parse a report back into (name, true_hits, false_hits) triples.
struct ReportEntry {
  std::string name;
  std::uint64_t true_hits = 0;
  std::uint64_t false_hits = 0;
};
std::vector<ReportEntry> parse_report(const std::string& text);

}  // namespace chatfuzz::cov
