// Persistent on-disk test corpus: the durable artifact of a fuzzing
// campaign. Tests that earned their keep (new coverage, a mismatch) are
// appended together with their metadata and coverage attribution; programs
// live in fixed-capacity shard files and an index file carries all metadata
// plus each entry's length — the layout long-running sharded campaigns and
// cross-campaign corpus reuse are built on. Entry i lives in shard
// i / capacity, right after the earlier entries of that shard, so the index
// stores no (shard, offset) pair that could disagree with that rule.
//
// Layout of a store directory:
//   <dir>/index.bin        versioned+checksummed index (util/serialize.h)
//   <dir>/shard-0000.bin   raw little-endian instruction words
//   <dir>/shard-0001.bin   ...
//
// Crash-safety contract: shards are append-only and the index is rewritten
// atomically by flush(). A crash can leave shard bytes beyond what the index
// references — they are unreachable garbage, reclaimed by the next append or
// truncate(). Campaign checkpoints record the entry count at snapshot time
// and resume() truncates back to it, which keeps the store byte-identical
// to an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/generator.h"
#include "util/serialize.h"

namespace chatfuzz::corpus {

/// Per-entry metadata: where the test came from and what it contributed.
struct StoreEntryMeta {
  std::uint64_t test_index = 0;      // global campaign test index
  std::uint32_t standalone_bins = 0; // condition bins this test hit
  std::uint32_t incremental_bins = 0;// bins newly covered by this test
  std::uint32_t mismatches = 0;      // post-filter mismatch records
  std::uint64_t ctrl_new = 0;        // new ctrl-reg states
  /// Coverage attribution: the condition bins this test covered FIRST
  /// (disjoint across entries by construction — the basis for replay-free
  /// corpus audits).
  std::vector<std::uint32_t> new_bins;
};

class CorpusStore {
 public:
  static constexpr std::size_t kDefaultShardCapacity = 256;  // entries/shard

  /// Open an existing store or create an empty one at `dir` (the directory
  /// is created if needed). Fails cleanly on a corrupt/truncated/foreign
  /// index file. Each entry's shard and offset are recomputed from the
  /// capacity and the earlier entries' lengths, never read.
  ser::Status open(const std::string& dir,
                   std::size_t shard_capacity = kDefaultShardCapacity);

  /// Append one program + metadata. The program bytes go to the current
  /// shard immediately; the index entry is buffered until flush().
  ser::Status append(const core::Program& program, const StoreEntryMeta& meta);

  /// Atomically rewrite the index to cover everything appended so far.
  ser::Status flush();

  /// Drop entries [n, size()) — the resume path's rollback to a checkpoint.
  /// Shard files are trimmed so a subsequent append reproduces the exact
  /// bytes an uninterrupted run would have written. Implies flush().
  ser::Status truncate(std::size_t n);

  std::size_t size() const { return entries_.size(); }
  const StoreEntryMeta& meta(std::size_t i) const { return entries_[i].meta; }
  /// Stored program length in u32 instruction words (tooling/stats).
  std::size_t program_words(std::size_t i) const {
    return entries_[i].num_words;
  }
  /// Number of shard files the entries span (0 for an empty store).
  std::size_t num_shards() const {
    return entries_.empty() ? 0 : entries_.back().shard + 1;
  }
  /// Read entry i's program. Fails without allocating when the shard file
  /// is shorter than the bytes the index claims for the entry.
  ser::Status read_program(std::size_t i, core::Program* out) const;
  /// Fails when a shard file is shorter than the end its last entry claims,
  /// the check read_program makes for one entry, for every shard at once.
  ser::Status check_shards() const;
  const std::string& dir() const { return dir_; }
  std::size_t shard_capacity() const { return shard_capacity_; }
  /// Shard file the entry lives in (for tests / tooling).
  std::string shard_path(std::size_t shard) const;

 private:
  struct Entry {
    std::uint32_t num_words = 0;
    StoreEntryMeta meta;
    // Derived by place(), not stored in the index.
    std::size_t shard = 0;
    std::uint64_t offset_words = 0;  // into the shard, in u32 words
  };

  /// Assign `e` the shard and offset of the next entry after entries_.
  void place(Entry& e) const;
  /// Words each shard must hold: where its last entry ends.
  std::vector<std::uint64_t> shard_words() const;

  std::string dir_;
  std::size_t shard_capacity_ = kDefaultShardCapacity;
  std::vector<Entry> entries_;
};

}  // namespace chatfuzz::corpus
