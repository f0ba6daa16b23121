#include "coverage/cover.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace chatfuzz::cov {

PointId CoverageDB::register_cond(std::string name) {
  const auto id = static_cast<PointId>(names_.size());
  names_.push_back(std::move(name));
  hits_.push_back(0);
  hits_.push_back(0);
  if (dirty_.size() * 64 < hits_.size()) {
    dirty_.push_back(0);
    test_dirty_.push_back(0);
  }
  return id;
}

void CoverageDB::begin_test() {
  // The bitmap IS the stand-alone hit set: zeroing its words clears it in
  // O(num_bins / 64).
  std::fill(test_dirty_.begin(), test_dirty_.end(), 0);
  test_covered_ = 0;
}

double CoverageDB::total_percent() const {
  return hits_.empty() ? 0.0
                       : 100.0 * static_cast<double>(total_covered()) /
                             static_cast<double>(hits_.size());
}

void CoverageDB::reset_hits() {
  // Clear only the hit counters the dirty bitmap marks.
  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    std::uint64_t bits = dirty_[w];
    while (bits != 0) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
      bits &= bits - 1;
      hits_[w * 64 + b] = 0;
    }
    dirty_[w] = 0;
  }
  covered_ = 0;
  begin_test();
}

std::uint64_t CoverageDB::layout_fingerprint() const {
  // FNV-1a over the registration sequence: same DUT build => same value.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& name : names_) {
    for (char c : name) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator
    h *= 0x100000001b3ull;
  }
  return h;
}

void CoverageDB::save_state(ser::Writer& w) const {
  w.u64(layout_fingerprint());
  w.vec_u64(hits_);
}

bool CoverageDB::restore_state(ser::Reader& r) {
  const std::uint64_t fp = r.u64();
  std::vector<std::uint64_t> hits = r.vec_u64();
  if (!r.ok() || fp != layout_fingerprint() || hits.size() != hits_.size()) {
    r.fail();
    return false;
  }
  hits_ = std::move(hits);
  // Rebuild the dirty bitmap and covered count from the restored counters.
  std::fill(dirty_.begin(), dirty_.end(), 0);
  covered_ = 0;
  for (std::size_t bin = 0; bin < hits_.size(); ++bin) {
    if (hits_[bin] != 0) {
      dirty_[bin >> 6] |= 1ull << (bin & 63);
      ++covered_;
    }
  }
  begin_test();
  return true;
}

namespace {

std::uint64_t ctrl_state_hash(std::uint64_t packed_state) {
  // Mix to spread adjacent states; 0 is reserved as the empty-slot marker.
  std::uint64_t h = packed_state * 0x9e3779b97f4a7c15ull;
  h ^= h >> 29;
  return h != 0 ? h : 1;
}

}  // namespace

bool CtrlRegCoverage::insert_key(std::uint64_t key) {
  if (seen_.empty()) seen_.resize(1ull << 16, 0);
  // Grow at 50% load. Membership must stay exact: if insertions could be
  // dropped (a bounded probe window in a saturated table), whether a state
  // "counts" would depend on insertion order, and sharded campaigns would
  // stop being bit-identical across worker counts.
  if (2 * count_ >= seen_.size()) {
    std::vector<std::uint64_t> old;
    old.swap(seen_);
    seen_.assign(2 * old.size(), 0);
    const std::size_t mask = seen_.size() - 1;
    for (const std::uint64_t k : old) {
      if (k == 0) continue;
      std::size_t slot = k & mask;
      while (seen_[slot] != 0) slot = (slot + 1) & mask;
      seen_[slot] = k;
    }
  }
  const std::size_t mask = seen_.size() - 1;
  std::size_t slot = key & mask;
  while (true) {
    if (seen_[slot] == key) return false;
    if (seen_[slot] == 0) {
      seen_[slot] = key;
      ++count_;
      return true;
    }
    slot = (slot + 1) & mask;
  }
}

bool CtrlRegCoverage::observe(std::uint64_t packed_state) {
  if (!insert_key(ctrl_state_hash(packed_state))) return false;
  ++test_new_;
  if (recorder_ != nullptr) recorder_->push_back(packed_state);
  return true;
}

void CtrlRegCoverage::save_state(ser::Writer& w) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(count_);
  for (std::uint64_t k : seen_) {
    if (k != 0) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  w.vec_u64(keys);
}

bool CtrlRegCoverage::restore_state(ser::Reader& r) {
  const std::vector<std::uint64_t> keys = r.vec_u64();
  if (!r.ok()) return false;
  reset();
  for (std::uint64_t k : keys) {
    if (k != 0) insert_key(k);  // 0 is the empty-slot marker, never a key
  }
  return true;
}

void CtrlRegCoverage::reset() {
  seen_.clear();
  count_ = 0;
  test_new_ = 0;
}

std::string format_report(const CoverageDB& db) {
  std::string out = "# chatfuzz condition coverage report v1\n";
  char line[256];
  for (std::size_t i = 0; i < db.num_points(); ++i) {
    std::snprintf(line, sizeof line, "COND %zu %s %llu %llu\n", i,
                  db.point_name(static_cast<PointId>(i)).c_str(),
                  static_cast<unsigned long long>(db.bin_hits(2 * i + 1)),
                  static_cast<unsigned long long>(db.bin_hits(2 * i)));
    out += line;
  }
  return out;
}

std::vector<ReportEntry> parse_report(const std::string& text) {
  std::vector<ReportEntry> entries;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("COND ", 0) != 0) continue;
    std::istringstream ls(line);
    std::string tag;
    std::size_t idx;
    ReportEntry e;
    if (ls >> tag >> idx >> e.name >> e.true_hits >> e.false_hits) {
      entries.push_back(std::move(e));
    }
  }
  return entries;
}

}  // namespace chatfuzz::cov
