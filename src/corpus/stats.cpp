#include "corpus/stats.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "util/log.h"

namespace chatfuzz::corpus {

StoreStats collect_store_stats(const CorpusStore& store) {
  StoreStats s;
  s.dir = store.dir();
  s.entries = store.size();
  s.shards = store.num_shards();
  s.shard_capacity = store.shard_capacity();

  std::error_code ec;
  const std::uintmax_t index_size =
      std::filesystem::file_size(store.dir() + "/index.bin", ec);
  if (!ec) s.disk_bytes += index_size;
  for (std::size_t sh = 0; sh < store.num_shards(); ++sh) {
    const std::uintmax_t n =
        std::filesystem::file_size(store.shard_path(sh), ec);
    if (!ec) s.disk_bytes += n;
  }

  for (std::size_t i = 0; i < store.size(); ++i) {
    const StoreEntryMeta& m = store.meta(i);
    s.program_words += store.program_words(i);
    s.attributed_bins += m.new_bins.size();
    s.ctrl_new += m.ctrl_new;
    if (m.mismatches > 0) ++s.with_mismatch;
    std::size_t bucket = 0;
    for (std::size_t n = m.new_bins.size(); n != 0; n >>= 1) ++bucket;
    s.attribution[std::min(bucket, StoreStats::kBuckets - 1)] += 1;
  }
  return s;
}

std::string render_store_stats(const StoreStats& s) {
  std::string out;
  out += strformat("corpus %s\n", s.dir.c_str());
  out += strformat("  entries:          %" PRIu64 "\n", s.entries);
  out += strformat("  shards:           %" PRIu64
                   " (capacity %" PRIu64 " entries each)\n",
                   s.shards, s.shard_capacity);
  out += strformat("  program bytes:    %" PRIu64
                   " (%" PRIu64 " instruction words)\n",
                   s.program_words * 4, s.program_words);
  out += strformat("  bytes on disk:    %" PRIu64 " (index + shards)\n",
                   s.disk_bytes);
  out += strformat("  attributed bins:  %" PRIu64
                   " condition bins first covered\n",
                   s.attributed_bins);
  out += strformat("  ctrl states:      %" PRIu64 " first observed\n",
                   s.ctrl_new);
  out += strformat("  with mismatch:    %" PRIu64 " entries\n",
                   s.with_mismatch);
  out += "  first-covered-bin attribution histogram:\n";
  for (std::size_t b = 0; b < StoreStats::kBuckets; ++b) {
    if (s.attribution[b] == 0) continue;
    const std::uint64_t lo = b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = (std::uint64_t{1} << b) - 1;
    if (b == StoreStats::kBuckets - 1) {
      out += strformat("    >=%4" PRIu64 " bins: %" PRIu64 " entries\n", lo,
                       s.attribution[b]);
    } else if (lo == hi || b == 0) {
      out += strformat("    %6" PRIu64 " bins: %" PRIu64 " entries\n", lo,
                       s.attribution[b]);
    } else {
      out += strformat("  %4" PRIu64 "-%4" PRIu64 " bins: %" PRIu64
                       " entries\n",
                       lo, hi, s.attribution[b]);
    }
  }
  return out;
}

namespace {

void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += strformat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void append_field(std::string* out, const char* key, std::uint64_t v,
                  bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += strformat("\"%s\":%" PRIu64, key, v);
}

/// Find `"key":` at top level and parse the u64 after it.
bool read_u64(const std::string& json, const char* key, std::uint64_t* out) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const char* p = json.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtoull(p, &end, 10);
  return end != p;
}

/// Unescape the string value of `"key":"..."` (the inverse of
/// append_json_string for the escapes it emits).
bool read_string(const std::string& json, const char* key, std::string* out) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  out->clear();
  for (std::size_t i = at + needle.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= json.size()) return false;
    switch (json[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (i + 4 >= json.size()) return false;
        out->push_back(static_cast<char>(
            std::strtoul(json.substr(i + 1, 4).c_str(), nullptr, 16)));
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

}  // namespace

std::string store_stats_to_json(const StoreStats& s) {
  std::string out = "{";
  out += "\"dir\":";
  append_json_string(&out, s.dir);
  bool first = false;
  append_field(&out, "entries", s.entries, &first);
  append_field(&out, "shards", s.shards, &first);
  append_field(&out, "shard_capacity", s.shard_capacity, &first);
  append_field(&out, "program_words", s.program_words, &first);
  append_field(&out, "program_bytes", s.program_words * 4, &first);
  append_field(&out, "disk_bytes", s.disk_bytes, &first);
  append_field(&out, "attributed_bins", s.attributed_bins, &first);
  append_field(&out, "ctrl_new", s.ctrl_new, &first);
  append_field(&out, "with_mismatch", s.with_mismatch, &first);
  out += ",\"attribution_histogram\":[";
  for (std::size_t b = 0; b < StoreStats::kBuckets; ++b) {
    if (b != 0) out += ",";
    out += strformat("%" PRIu64, s.attribution[b]);
  }
  out += "]}\n";
  return out;
}

bool parse_store_stats_json(const std::string& json, StoreStats* out) {
  *out = StoreStats{};
  if (!read_string(json, "dir", &out->dir)) return false;
  bool ok = read_u64(json, "entries", &out->entries) &&
            read_u64(json, "shards", &out->shards) &&
            read_u64(json, "shard_capacity", &out->shard_capacity) &&
            read_u64(json, "program_words", &out->program_words) &&
            read_u64(json, "disk_bytes", &out->disk_bytes) &&
            read_u64(json, "attributed_bins", &out->attributed_bins) &&
            read_u64(json, "ctrl_new", &out->ctrl_new) &&
            read_u64(json, "with_mismatch", &out->with_mismatch);
  if (!ok) return false;
  const std::size_t at = json.find("\"attribution_histogram\":[");
  if (at == std::string::npos) return false;
  const char* p = json.c_str() + at + 25;
  for (std::size_t b = 0; b < StoreStats::kBuckets; ++b) {
    char* end = nullptr;
    out->attribution[b] = std::strtoull(p, &end, 10);
    if (end == p) return false;
    p = end;
    if (*p == ',') ++p;
  }
  return *p == ']';
}

}  // namespace chatfuzz::corpus
