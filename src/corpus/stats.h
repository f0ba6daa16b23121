// Replay-free corpus introspection, straight off the store index: size,
// disk footprint, coverage-attribution histogram.
// One collection pass feeds both renderings — the human table the
// `chatfuzz corpus stats` command always printed, and a machine-readable
// JSON object (`corpus stats --json`) for dashboards and CI. The JSON
// round-trips through parse_store_stats_json so tooling (and the obs test
// suite) can consume it without a JSON library.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "corpus/store.h"

namespace chatfuzz::corpus {

struct StoreStats {
  /// Attribution histogram bucket count: bucket k holds entries whose
  /// first-covered-bin count lands in [2^(k-1), 2^k) (bucket 0 = zero).
  static constexpr std::size_t kBuckets = 12;

  std::string dir;
  std::uint64_t entries = 0;
  std::uint64_t shards = 0;
  std::uint64_t shard_capacity = 0;
  std::uint64_t program_words = 0;
  std::uint64_t disk_bytes = 0;       // index + shard files
  std::uint64_t attributed_bins = 0;  // condition bins first covered
  std::uint64_t ctrl_new = 0;         // ctrl-reg states first observed
  std::uint64_t with_mismatch = 0;    // entries archived with a mismatch
  std::array<std::uint64_t, kBuckets> attribution = {};

  bool operator==(const StoreStats&) const = default;
};

/// One pass over an open store's index (no program reads, no replay) into
/// *out. Fails, as the store's readers do, when a shard file is shorter
/// than the bytes the index claims for it.
ser::Status collect_store_stats(const CorpusStore& store, StoreStats* out);

/// The classic `corpus stats` table.
std::string render_store_stats(const StoreStats& s);

/// Single flat JSON object, keys stable for scripting.
std::string store_stats_to_json(const StoreStats& s);

/// Inverse of store_stats_to_json (exact round-trip on its own output).
/// Returns false on malformed input or a missing key.
bool parse_store_stats_json(const std::string& json, StoreStats* out);

}  // namespace chatfuzz::corpus
