// Superblock layer on top of the predecode cache: where PredecodeCache
// memoizes one decode per fetch address, SuperblockIndex memoizes *spans* of
// straight-line code — maximal runs of decoded instructions with no
// control-flow, CSR, fence or invalid-word terminator — so a dispatch loop
// can execute a whole span while re-checking PC, traps and translation state
// only at block boundaries.
//
// Validity is delegated to the owner through *guard cells*: the owner keeps
// an array of u64 generation counters (IsaSim: one per 4 KiB RAM page plus a
// global flush cell, bumped by stores / fence.i / reset; RtlCore: one per
// I-cache line, bumped on refill, invalidation and flush) and each span
// records the cells it was built over together with their values. A span is
// served only while every recorded cell still holds its recorded value, so
// a store into the middle of a cached span — or an I-cache eviction under
// it — drops the block exactly like the word-granular predecode
// invalidation does, without the index ever observing memory itself.
//
// The index is purely derived state: it must never enter checkpoints, and
// flushing it at any point changes nothing but speed.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "riscv/decode.h"
#include "riscv/instr.h"

namespace chatfuzz::riscv {

/// Longest span a single superblock may cover (instructions). 64 words is
/// 256 bytes of straight-line code: long enough to amortize dispatch, short
/// enough that a span never straddles more than one 4 KiB page boundary.
inline constexpr std::size_t kMaxSuperblockLen = 64;

/// True when `d` must end a superblock: anything that can redirect the PC,
/// change privilege or translation state, write a CSR, or that the decoder
/// rejected. Loads, stores and AMOs stay inside spans — they cannot move
/// the PC (a fault exits through the trap path, which the dispatch loops
/// detect per-slot).
inline bool superblock_terminator(const Decoded& d) {
  if (!d.valid()) return true;
  switch (d.op) {
    case Opcode::kJal:
    case Opcode::kJalr:
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
    case Opcode::kEcall:
    case Opcode::kEbreak:
    case Opcode::kMret:
    case Opcode::kSret:
    case Opcode::kWfi:
    case Opcode::kFence:
    case Opcode::kFenceI:
    case Opcode::kSfenceVma:
    case Opcode::kCsrrw:
    case Opcode::kCsrrs:
    case Opcode::kCsrrc:
    case Opcode::kCsrrwi:
    case Opcode::kCsrrsi:
    case Opcode::kCsrrci:
      return true;
    default:
      return false;
  }
}

/// Direct-mapped span cache. SlotT is the per-instruction payload the owner
/// wants to replay (IsaSim: the Decoded itself; RtlCore: Decoded plus
/// precomputed coverage-outcome bits); ExtraT is an optional per-span
/// payload (RtlCore: full-span outcome totals for batched folding).
template <typename SlotT, typename ExtraT = std::uint8_t>
class SuperblockIndex {
 public:
  /// A guard: cell index into the owner's generation array + the value the
  /// cell held when the span was built.
  struct Guard {
    std::uint32_t cell = 0;
    std::uint64_t value = 0;
  };
  /// 64 instructions touch at most 9 icache lines (32 B each) or 2 pages;
  /// +1 leaves room for a global flush cell.
  static constexpr std::size_t kMaxGuards = kMaxSuperblockLen / 8 + 2;

  struct Span {
    std::uint64_t start = kEmpty;
    std::uint32_t first = 0;       // arena offset of slot 0
    std::uint16_t len = 0;         // 0 = cached negative result
    std::uint8_t num_guards = 0;
    bool listed = false;           // on the used-slot list (see flush())
    std::array<Guard, kMaxGuards> guards{};
    ExtraT extra{};
  };

  explicit SuperblockIndex(std::size_t spans = 1024)
      : mask_(spans - 1), spans_(spans) {}

  /// The fresh span starting at `pc`, or nullptr (absent or stale — the
  /// caller rebuilds either way). `len == 0` spans are cached negative
  /// results: "the slow path must handle this pc"; they spare a re-decode
  /// per visit to block leaders that are themselves terminators.
  const Span* find(std::uint64_t pc,
                   const std::vector<std::uint64_t>& cells) const {
    const Span& s = spans_[index(pc)];
    if (s.start != pc || !fresh(s, cells)) return nullptr;
    return &s;
  }

  /// Re-check a span's guards mid-execution (after a store slot may have
  /// bumped a cell under it).
  static bool fresh(const Span& s, const std::vector<std::uint64_t>& cells) {
    for (std::uint8_t i = 0; i < s.num_guards; ++i) {
      if (cells[s.guards[i].cell] != s.guards[i].value) return false;
    }
    return true;
  }

  // Build protocol: begin_build claims the (direct-mapped) table slot and a
  // fresh arena region; the caller adds guards and pushes slots, stopping
  // at the first terminator, guard overflow, or kMaxSuperblockLen.
  Span& begin_build(std::uint64_t pc) {
    if (arena_.size() > kMaxArenaSlots) flush();
    Span& s = touched(pc);
    s.start = pc;
    s.first = static_cast<std::uint32_t>(arena_.size());
    s.len = 0;
    s.num_guards = 0;
    s.extra = ExtraT{};
    return s;
  }

  /// Record a guard cell; duplicate cells collapse. Returns false when the
  /// guard table is full (the caller must stop extending the span).
  bool add_guard(Span& s, std::uint32_t cell, std::uint64_t value) {
    for (std::uint8_t i = 0; i < s.num_guards; ++i) {
      if (s.guards[i].cell == cell) return true;
    }
    if (s.num_guards == kMaxGuards) return false;
    s.guards[s.num_guards++] = Guard{cell, value};
    return true;
  }

  void push(Span& s, SlotT slot) {
    arena_.push_back(std::move(slot));
    ++s.len;
  }

  const SlotT* slots(const Span& s) const { return arena_.data() + s.first; }

  /// Drop every span and reclaim the arena. O(spans ever built since the
  /// last flush). Owners call this on reset/fence.i only when they do not
  /// route those events through a guard cell.
  void flush() {
    for (const std::uint32_t idx : used_) {
      spans_[idx].start = kEmpty;
      spans_[idx].listed = false;
    }
    used_.clear();
    arena_.clear();
  }

  std::size_t arena_slots() const { return arena_.size(); }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;
  /// Arena cap: evicted spans leak their slots until the next flush, so the
  /// arena is swept wholesale once it outgrows this (~a few MiB worst case,
  /// typically never hit within one test).
  static constexpr std::size_t kMaxArenaSlots = 1u << 16;

  std::size_t index(std::uint64_t pc) const { return (pc >> 2) & mask_; }

  Span& touched(std::uint64_t pc) {
    const std::size_t i = index(pc);
    Span& s = spans_[i];
    if (!s.listed) {
      s.listed = true;
      used_.push_back(static_cast<std::uint32_t>(i));
    }
    return s;
  }

  std::size_t mask_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> used_;
  std::vector<SlotT> arena_;
};

}  // namespace chatfuzz::riscv
