#include "corpus/store.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace chatfuzz::corpus {

namespace {

constexpr std::uint32_t kIndexMagic = 0x43465A43;  // "CFZC"
// v2: a per-entry phase signature joined the record.
// v3: the phase signature left again, and so did each entry's shard and
// offset, which open() now derives from the capacity and the entry lengths.
constexpr std::uint32_t kIndexVersion = 3;

std::string errno_detail() {
  const int e = errno;
  return std::string(" (errno ") + std::to_string(e) + ": " +
         std::strerror(e) + ")";
}

}  // namespace

std::string CorpusStore::shard_path(std::size_t shard) const {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%04zu.bin", shard);
  return dir_ + "/" + name;
}

ser::Status CorpusStore::open(const std::string& dir,
                              std::size_t shard_capacity) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return ser::Status::error("cannot create corpus directory " + dir + ": " +
                              ec.message());
  }
  dir_ = dir;
  shard_capacity_ = shard_capacity == 0 ? 1 : shard_capacity;
  entries_.clear();

  const std::string index = dir + "/index.bin";
  if (!std::filesystem::exists(index)) return {};  // fresh store

  std::string payload;
  ser::Status s = ser::read_file(index, kIndexMagic, kIndexVersion,
                                 "corpus index", &payload);
  if (!s.ok()) return s;
  ser::Reader r(payload);
  const std::uint64_t stored_capacity = r.u64();
  const std::uint64_t n = r.u64();
  if (!r.ok() || stored_capacity == 0) {
    return ser::Status::error(index + ": malformed corpus index header");
  }
  shard_capacity_ = static_cast<std::size_t>(stored_capacity);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    Entry e;
    e.num_words = r.u32();
    e.meta.test_index = r.u64();
    e.meta.standalone_bins = r.u32();
    e.meta.incremental_bins = r.u32();
    e.meta.mismatches = r.u32();
    e.meta.ctrl_new = r.u64();
    e.meta.new_bins = r.vec_u32();
    place(e);
    entries_.push_back(std::move(e));
  }
  if (!r.done()) {
    entries_.clear();
    return ser::Status::error(index + ": corpus index payload is truncated "
                                      "or carries trailing garbage");
  }
  return {};
}

void CorpusStore::place(Entry& e) const {
  if (entries_.empty()) {
    e.shard = 0;
    e.offset_words = 0;
    return;
  }
  const Entry& last = entries_.back();
  const bool shard_full = entries_.size() % shard_capacity_ == 0;
  e.shard = shard_full ? last.shard + 1 : last.shard;
  e.offset_words = shard_full ? 0 : last.offset_words + last.num_words;
}

ser::Status CorpusStore::append(const core::Program& program,
                                const StoreEntryMeta& meta) {
  if (dir_.empty()) {
    return ser::Status::error("corpus store is not open");
  }
  Entry e;
  e.num_words = static_cast<std::uint32_t>(program.size());
  e.meta = meta;
  place(e);

  const std::string path = shard_path(e.shard);
  // "r+b" keeps existing bytes (append at the tracked offset, which after a
  // resume-truncate may be *before* end-of-file garbage from a crashed run);
  // fall back to creating the shard.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return ser::Status::error("cannot open corpus shard " + path +
                              errno_detail());
  }
  ser::Writer w;
  for (std::uint32_t word : program) w.u32(word);
  const long byte_off = static_cast<long>(e.offset_words * 4);
  if (std::fseek(f, byte_off, SEEK_SET) != 0) {
    const std::string detail = errno_detail();
    std::fclose(f);
    return ser::Status::error("cannot seek in corpus shard " + path + detail);
  }
  const std::size_t wrote =
      std::fwrite(w.buffer().data(), 1, w.buffer().size(), f);
  if (wrote != w.buffer().size()) {
    const std::string detail = errno_detail();
    std::fclose(f);
    return ser::Status::error("short write to corpus shard " + path + ": " +
                              std::to_string(wrote) + " of " +
                              std::to_string(w.buffer().size()) + " bytes" +
                              detail);
  }
  if (std::fclose(f) != 0) {
    return ser::Status::error("cannot flush corpus shard " + path +
                              errno_detail());
  }
  entries_.push_back(std::move(e));
  return {};
}

ser::Status CorpusStore::flush() {
  if (dir_.empty()) {
    return ser::Status::error("corpus store is not open");
  }
  ser::Writer w;
  w.u64(shard_capacity_);
  w.u64(entries_.size());
  for (const Entry& e : entries_) {
    w.u32(e.num_words);
    w.u64(e.meta.test_index);
    w.u32(e.meta.standalone_bins);
    w.u32(e.meta.incremental_bins);
    w.u32(e.meta.mismatches);
    w.u64(e.meta.ctrl_new);
    w.vec_u32(e.meta.new_bins);
  }
  return ser::write_file(dir_ + "/index.bin", kIndexMagic, kIndexVersion,
                         w.buffer());
}

ser::Status CorpusStore::truncate(std::size_t n) {
  if (n > entries_.size()) {
    return ser::Status::error(
        "corpus truncate to " + std::to_string(n) + " entries, but " + dir_ +
        " only has " + std::to_string(entries_.size()) +
        " (checkpoint is newer than the corpus index; store is corrupt)");
  }
  entries_.resize(n);
  // Trim shard files to exactly the referenced bytes so future appends
  // reproduce an uninterrupted run's files byte-for-byte; drop shards past
  // the last referenced one entirely.
  std::vector<std::uint64_t> shard_words;
  for (const Entry& e : entries_) {
    if (e.shard >= shard_words.size()) shard_words.resize(e.shard + 1, 0);
    shard_words[e.shard] = e.offset_words + e.num_words;
  }
  for (std::size_t shard = 0;; ++shard) {
    const std::string path = shard_path(shard);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) break;
    if (shard < shard_words.size()) {
      // Trimming only ever shrinks: a shard shorter than the index claims
      // is damaged, and growing it would pad the programs with zeros.
      const std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (!ec && size < shard_words[shard] * 4) {
        return ser::Status::error("corpus shard " + path +
                                  " is truncated (index references missing "
                                  "bytes)");
      }
      if (!ec) std::filesystem::resize_file(path, shard_words[shard] * 4, ec);
      if (ec) {
        return ser::Status::error("cannot trim corpus shard " + path + ": " +
                                  ec.message());
      }
    } else {
      std::filesystem::remove(path, ec);
      if (ec) {
        return ser::Status::error("cannot remove corpus shard " + path +
                                  ": " + ec.message());
      }
    }
  }
  return flush();
}

ser::Status CorpusStore::read_program(std::size_t i,
                                      core::Program* out) const {
  if (i >= entries_.size()) {
    return ser::Status::error("corpus entry " + std::to_string(i) +
                              " out of range (store has " +
                              std::to_string(entries_.size()) + ")");
  }
  const Entry& e = entries_[i];
  const std::string path = shard_path(e.shard);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return ser::Status::error("cannot open corpus shard " + path +
                              errno_detail());
  }
  // Size the read against the shard before allocating: an index entry can
  // claim up to 2^32 - 1 words, and the shard must hold them.
  const std::uint64_t end_byte = (e.offset_words + e.num_words) * 4;
  bool failed = std::fseek(f, 0, SEEK_END) != 0;
  if (!failed) {
    const long size = std::ftell(f);
    failed = size < 0 || static_cast<std::uint64_t>(size) < end_byte;
  }
  std::string bytes;
  if (!failed) {
    bytes.resize(static_cast<std::size_t>(e.num_words) * 4);
    failed = std::fseek(f, static_cast<long>(e.offset_words * 4),
                        SEEK_SET) != 0 ||
             std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size();
  }
  std::fclose(f);
  if (failed) {
    return ser::Status::error("corpus shard " + path +
                              " is truncated at entry " + std::to_string(i) +
                              " (index references missing bytes)");
  }
  ser::Reader r(bytes);
  out->clear();
  out->reserve(e.num_words);
  for (std::uint32_t k = 0; k < e.num_words; ++k) out->push_back(r.u32());
  return {};
}

}  // namespace chatfuzz::corpus
