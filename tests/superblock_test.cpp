// Superblock dispatch engine (riscv/superblock.h) semantics: the span index
// must serve only guard-fresh spans, and — the core contract — executing
// with superblocks on or off must be architecturally indistinguishable on
// both simulators: identical traces, registers and (for RtlCore) cycle
// counts.
#include <gtest/gtest.h>

#include <vector>

#include "corpus/generator.h"
#include "coverage/cover.h"
#include "isasim/sim.h"
#include "riscv/builder.h"
#include "riscv/encode.h"
#include "riscv/superblock.h"
#include "rtlsim/core.h"

namespace chatfuzz {
namespace {

using riscv::Opcode;
using riscv::ProgramBuilder;
using Index = riscv::SuperblockIndex<int>;

// ---- SuperblockIndex ------------------------------------------------------

TEST(SuperblockIndex, ServesFreshSpansAndDropsStaleOnes) {
  Index idx;
  std::vector<std::uint64_t> cells(4, 0);
  const std::uint64_t pc = 0x8000'0000ull;
  EXPECT_EQ(idx.find(pc, cells), nullptr);

  Index::Span& s = idx.begin_build(pc);
  ASSERT_TRUE(idx.add_guard(s, 1, cells[1]));
  ASSERT_TRUE(idx.add_guard(s, 2, cells[2]));
  idx.push(s, 10);
  idx.push(s, 20);

  const Index::Span* hit = idx.find(pc, cells);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->len, 2u);
  EXPECT_EQ(idx.slots(*hit)[0], 10);
  EXPECT_EQ(idx.slots(*hit)[1], 20);
  EXPECT_EQ(idx.find(pc + 4, cells), nullptr);  // wrong start pc

  ++cells[2];  // a guarded cell moved: span is stale
  EXPECT_EQ(idx.find(pc, cells), nullptr);
  EXPECT_FALSE(Index::fresh(*hit, cells));
}

TEST(SuperblockIndex, DuplicateGuardCellsCollapseAndOverflowStopsBuild) {
  Index idx;
  Index::Span& s = idx.begin_build(0x8000'0000ull);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(idx.add_guard(s, 7, 1));  // same cell: recorded once
  }
  EXPECT_EQ(s.num_guards, 1u);
  std::uint32_t cell = 100;
  while (s.num_guards < Index::kMaxGuards) {
    EXPECT_TRUE(idx.add_guard(s, cell++, 0));
  }
  EXPECT_FALSE(idx.add_guard(s, cell, 0));  // table full: caller must stop
  EXPECT_TRUE(idx.add_guard(s, 7, 1));      // but known cells still collapse
}

TEST(SuperblockIndex, CachedNegativeResultHasZeroLength) {
  // A block leader that is itself a terminator caches as len == 0: "slow
  // path handles this pc" without a re-decode per visit.
  Index idx;
  std::vector<std::uint64_t> cells(2, 0);
  const std::uint64_t pc = 0x8000'0040ull;
  Index::Span& s = idx.begin_build(pc);
  ASSERT_TRUE(idx.add_guard(s, 0, cells[0]));
  const Index::Span* hit = idx.find(pc, cells);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->len, 0u);
}

TEST(SuperblockIndex, FlushDropsEverySpanAndReclaimsArena) {
  Index idx;
  std::vector<std::uint64_t> cells(2, 0);
  for (std::uint64_t pc = 0x8000'0000ull; pc < 0x8000'0100ull; pc += 0x20) {
    Index::Span& s = idx.begin_build(pc);
    ASSERT_TRUE(idx.add_guard(s, 0, 0));
    idx.push(s, static_cast<int>(pc));
  }
  EXPECT_GT(idx.arena_slots(), 0u);
  idx.flush();
  EXPECT_EQ(idx.arena_slots(), 0u);
  for (std::uint64_t pc = 0x8000'0000ull; pc < 0x8000'0100ull; pc += 0x20) {
    EXPECT_EQ(idx.find(pc, cells), nullptr);
  }
}

// ---- dispatch-engine A/B identity -----------------------------------------

void expect_same_trace(const sim::Trace& a, const sim::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].to_string(), b[i].to_string()) << "commit " << i;
  }
}

std::vector<std::vector<std::uint32_t>> ab_programs() {
  std::vector<std::vector<std::uint32_t>> progs;
  // A branchy loop with a mid-span store over code: exercises span reuse,
  // guard invalidation and rebuild inside one test.
  ProgramBuilder b(0x8000'0000ull);
  b.li(1, static_cast<std::int32_t>(riscv::enc_i(Opcode::kAddi, 5, 0, 77)));
  const std::uint64_t anchor = b.pc();
  b.auipc(2, 0);
  b.addi(10, 0, 0);
  b.addi(11, 0, 3);
  b.label("again");
  for (int i = 0; i < 10; ++i) b.addi(6, 6, 1);
  const std::uint64_t slot = b.pc();
  b.raw(riscv::enc_i(Opcode::kAddi, 5, 0, 1));
  b.addi(10, 10, 1);
  b.sw(2, 1, static_cast<std::int32_t>(slot - anchor));
  b.branch_to(Opcode::kBne, 10, 11, "again");
  b.wfi();
  progs.push_back(b.seal());
  // Generated corpus functions: the mix the campaigns actually run.
  corpus::CorpusGenerator gen({}, 1234);
  for (int i = 0; i < 8; ++i) progs.push_back(gen.function());
  return progs;
}

TEST(SuperblockDispatch, IsaSimTraceIdenticalOnAndOff) {
  for (const auto& prog : ab_programs()) {
    sim::IsaSim on;
    ASSERT_TRUE(on.superblocks());
    on.reset(prog);
    const sim::RunResult ron = on.run();

    sim::IsaSim off;
    off.set_superblocks(false);
    off.reset(prog);
    const sim::RunResult roff = off.run();

    EXPECT_EQ(ron.stop, roff.stop);
    expect_same_trace(on.trace(), off.trace());
    for (unsigned r = 0; r < 32; ++r) EXPECT_EQ(on.reg(r), off.reg(r));
  }
}

TEST(SuperblockDispatch, RtlCoreTraceAndCyclesIdenticalOnAndOff) {
  // The fused fetch path must preserve cycle accounting and injected-bug
  // semantics exactly, with and without a bug armed.
  for (int buggy = 0; buggy < 2; ++buggy) {
    rtl::CoreConfig cfg = rtl::CoreConfig::rocket();
    if (buggy == 0) {
      // Clean build: the five paper bugs default on, switch them off.
      cfg.bugs.stale_icache = false;
      cfg.bugs.tracer_drops_muldiv = false;
      cfg.bugs.fault_priority_swap = false;
      cfg.bugs.amo_x0_trace = false;
      cfg.bugs.x0_link_trace = false;
    }
    for (const auto& prog : ab_programs()) {
      cov::CoverageDB db_on;
      rtl::RtlCore on(cfg, db_on, {});
      ASSERT_TRUE(on.superblocks());
      on.reset(prog);
      const sim::RunResult ron = on.run();

      cov::CoverageDB db_off;
      rtl::RtlCore off(cfg, db_off, {});
      off.set_superblocks(false);
      off.reset(prog);
      const sim::RunResult roff = off.run();

      EXPECT_EQ(ron.stop, roff.stop);
      EXPECT_EQ(ron.steps, roff.steps);
      EXPECT_EQ(on.cycles(), off.cycles());
      expect_same_trace(ron.trace, roff.trace);
      for (unsigned r = 0; r < 32; ++r) EXPECT_EQ(on.reg(r), off.reg(r));
    }
  }
}

}  // namespace
}  // namespace chatfuzz
