// Sv39 translation unit suite: page-table-walker behaviour (leaf/non-leaf
// descent, superpage alignment, R/W/X/U permission checks, SUM/MXR, Svade
// A/D faults, TLB caching + sfence.vma), asserted against the golden model
// and bug-free builds of both DUT backends (in-order `rocket` and
// out-of-order `ooo`, which share one MMU), plus a randomized lockstep
// property test (bug-free DUT over privileged/VM corpus programs must
// produce zero mismatches) and detection tests proving the differential
// harness catches each of the three injected trap/translation bugs on
// either backend.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "corpus/generator.h"
#include "coverage/cover.h"
#include "isasim/platform.h"
#include "isasim/sim.h"
#include "mismatch/detect.h"
#include "mismatch/lockstep.h"
#include "riscv/builder.h"
#include "riscv/csr.h"
#include "rtlsim/dut.h"

namespace chatfuzz {
namespace {

namespace csr = riscv::csr;
namespace ms = sim::mstatus;
namespace pv = riscv::sv39;
using riscv::Priv;
using Program = std::vector<std::uint32_t>;

// Physical page-table layout used by the directed programs: the root sits
// in the last RAM page (above the data region, like the generator's VM
// idiom), with the level-1/level-0 tables in the two pages below it.
constexpr std::uint64_t kRootPage = 0x800ff;
constexpr std::uint64_t kL1Page = 0x800fe;
constexpr std::uint64_t kL0Page = 0x800fd;
constexpr std::uint64_t kDataPage = 0x80010;   // PA backing the mapped VA
constexpr std::uint64_t kDataPage2 = 0x80018;  // remap target
// VA 0xC000_4000: vpn2=3 (root slot 3), vpn1=0, vpn0=4. The vpn0=4 slot
// keeps its TLB index clear of the fetch pages (index 0) and the
// identity-mapped PT pages (index 13-15).
constexpr std::uint64_t kVa = 0xC000'4000ull;
constexpr std::int32_t kMarker = 0x1111;
constexpr std::int32_t kMarker2 = 0x2222;

constexpr std::uint64_t kLeafRwad =
    pv::kPteV | pv::kPteR | pv::kPteW | pv::kPteA | pv::kPteD;
constexpr std::uint64_t kGigaFull =
    kLeafRwad | pv::kPteX;

std::int32_t pte(std::uint64_t pa_page, std::uint64_t flags) {
  return static_cast<std::int32_t>((pa_page << 10) | flags);
}

/// li+slli+li+sd: write a 64-bit constant to page*4096+off. Clobbers t0/t1.
void store64(riscv::ProgramBuilder& b, std::uint64_t page, unsigned off,
             std::int32_t value) {
  b.li(5, static_cast<std::int32_t>(page));
  b.slli(5, 5, 12);
  b.li(6, value);
  b.sd(5, 6, static_cast<std::int32_t>(off));
}

/// Install satp = {Sv39, root} and fence. Clobbers t0/t1.
void install_satp(riscv::ProgramBuilder& b) {
  b.li(6, static_cast<std::int32_t>(csr::kSatpModeSv39));
  b.slli(6, 6, csr::kSatpModeShift);
  b.li(5, static_cast<std::int32_t>(kRootPage));
  b.or_(6, 6, 5);
  b.csrrw(0, csr::kSatp, 6);
  b.sfence_vma();
}

/// M-mode preamble: marker at the backing page, identity gigapage for code
/// (root[2]), three-level chain root[3] -> L1[0] -> L0[4] with `leaf_flags`
/// for kVa, satp install, then drop to S-mode.
void build_vm(riscv::ProgramBuilder& b, std::uint64_t leaf_flags) {
  store64(b, kDataPage, 0, kMarker);
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull));
  store64(b, kRootPage, 24, pte(kL1Page, pv::kPteV));
  store64(b, kL1Page, 0, pte(kL0Page, pv::kPteV));
  store64(b, kL0Page, 32, pte(kDataPage, leaf_flags));
  install_satp(b);
  b.enter_priv(1);
}

/// Materialize kVa in `rd` (zero-extended; li alone would sign-extend).
void load_va(riscv::ProgramBuilder& b, unsigned rd) {
  b.li(rd, static_cast<std::int32_t>(kVa >> 12));
  b.slli(rd, rd, 12);
}

/// Both DUT backends, by `--dut` preset name.
constexpr const char* kDuts[] = {"rocket", "ooo"};

/// The `preset` backend with bug injections `bugs`, built through the
/// campaign's own factory.
std::unique_ptr<rtl::DutCore> make_backend(const char* preset,
                                           const rtl::BugInjections& bugs,
                                           cov::CoverageDB& db,
                                           const sim::Platform& plat) {
  rtl::CoreConfig core;
  EXPECT_TRUE(rtl::dut_preset(preset, core)) << preset;
  core.bugs = bugs;
  return rtl::make_dut(core, db, plat);
}

/// Run `prog` on the golden model and on bug-free builds of both backends,
/// then apply the same assertions to each (labelled by side).
template <typename Check>
void run_both(const Program& prog, Check&& check, std::uint64_t max_steps = 512) {
  sim::Platform plat;
  plat.max_steps = max_steps;
  {
    sim::IsaSim iss(plat);
    iss.reset(prog);
    iss.run();
    check("iss", iss);
  }
  for (const char* preset : kDuts) {
    cov::CoverageDB db;
    const auto dut =
        make_backend(preset, rtl::BugInjections::none(), db, plat);
    dut->reset(prog);
    dut->run();
    check(preset, *dut);
  }
}

/// Directed fault probe: access kVa through `leaf_flags` and expect the
/// M-mode trampoline to record `cause` with mtval = the faulting VA.
void expect_access_fault(std::uint64_t leaf_flags, bool is_store,
                         unsigned cause) {
  riscv::ProgramBuilder b;
  build_vm(b, leaf_flags);
  load_va(b, 10);
  if (is_store) {
    b.sd(10, 11, 0);
  } else {
    b.ld(11, 10, 0);
  }
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), cause) << side;
    EXPECT_EQ(s.csr_value(csr::kMtval), kVa) << side;
    EXPECT_EQ(s.csr_value(csr::kScause), 0u) << side;  // not delegated
  });
}

TEST(Sv39Ptw, GigapageIdentityFetchLoadStore) {
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull));
  install_satp(b);
  b.enter_priv(1);  // code now fetches through the gigapage
  b.li(5, 0x80084);
  b.slli(5, 5, 12);  // identity VA inside the data region
  b.li(6, kMarker);
  b.sd(5, 6, 0);
  b.ld(10, 5, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.reg(10), static_cast<std::uint64_t>(kMarker)) << side;
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;
    EXPECT_EQ(static_cast<int>(s.priv()), static_cast<int>(Priv::kSupervisor))
        << side;
  });
}

TEST(Sv39Ptw, ThreeLevelWalkTranslatesLoadAndStore) {
  riscv::ProgramBuilder b;
  build_vm(b, kLeafRwad);
  load_va(b, 10);
  b.ld(11, 10, 0);      // marker through the 4K leaf
  b.li(12, kMarker2);
  b.sd(10, 12, 8);      // store through it
  b.ld(13, 10, 8);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.reg(11), static_cast<std::uint64_t>(kMarker)) << side;
    EXPECT_EQ(s.reg(13), static_cast<std::uint64_t>(kMarker2)) << side;
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;
    // The store went to the physical backing page.
    EXPECT_EQ(s.memory().read((kDataPage << 12) + 8, 8),
              static_cast<std::uint64_t>(kMarker2))
        << side;
  });
}

TEST(Sv39Ptw, InvalidLeafFaults) {
  expect_access_fault(0, false, 13);  // V=0
}

TEST(Sv39Ptw, ReservedWriteNotReadEncodingFaults) {
  expect_access_fault(pv::kPteV | pv::kPteW | pv::kPteA | pv::kPteD, false, 13);
}

TEST(Sv39Ptw, StoreToReadOnlyLeafFaults) {
  expect_access_fault(pv::kPteV | pv::kPteR | pv::kPteA | pv::kPteD, true, 15);
}

TEST(Sv39Ptw, PointerPteAtLevelZeroFaults) {
  // V set, RWX clear at the last level: the walk runs out of levels.
  expect_access_fault(pv::kPteV, false, 13);
}

TEST(Sv39Ptw, MissingAccessedBitFaults) {
  // Svade: no hardware A/D update; the access itself faults.
  expect_access_fault(pv::kPteV | pv::kPteR | pv::kPteW | pv::kPteD, false, 13);
}

TEST(Sv39Ptw, MissingDirtyBitFaultsStoresOnly) {
  expect_access_fault(pv::kPteV | pv::kPteR | pv::kPteW | pv::kPteA, true, 15);
  // The same leaf serves loads fine.
  riscv::ProgramBuilder b;
  build_vm(b, pv::kPteV | pv::kPteR | pv::kPteW | pv::kPteA);
  load_va(b, 10);
  b.ld(11, 10, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.reg(11), static_cast<std::uint64_t>(kMarker)) << side;
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;
  });
}

TEST(Sv39Ptw, MisalignedSuperpageFaults) {
  // 2M leaf at L1 whose PPN low bits are not zero: alignment fault.
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull));
  store64(b, kRootPage, 24, pte(kL1Page, pv::kPteV));
  store64(b, kL1Page, 0, pte(0x80011, kLeafRwad));  // 0x11 % 512 != 0
  install_satp(b);
  b.enter_priv(1);
  load_va(b, 10);
  b.ld(11, 10, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 13u) << side;
    EXPECT_EQ(s.csr_value(csr::kMtval), kVa) << side;
  });
}

TEST(Sv39Ptw, WalkThroughUnmappedTableFaults) {
  // Non-leaf PTE pointing outside RAM: the walk itself can't load.
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull));
  store64(b, kRootPage, 24, pte(0x90000, pv::kPteV));  // beyond the 1 MiB RAM
  install_satp(b);
  b.enter_priv(1);
  load_va(b, 10);
  b.ld(11, 10, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 13u) << side;
  });
}

TEST(Sv39Ptw, NonCanonicalAddressFaults) {
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull));
  install_satp(b);
  b.enter_priv(1);
  b.li(10, 1);
  b.slli(10, 10, 40);  // bits 63:39 don't match bit 38
  b.ld(11, 10, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 13u) << side;
  });
}

TEST(Sv39Priv, SupervisorFetchFromUserPageFaults) {
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull | pv::kPteU));
  install_satp(b);
  b.enter_priv(1);  // S-mode: first translated fetch hits a U page
  const std::uint64_t fault_pc = b.pc();
  b.addi(10, 0, 1);  // skipped by the fault, then re-run in M
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 12u) << side;
    EXPECT_EQ(s.csr_value(csr::kMtval), fault_pc) << side;
    EXPECT_EQ(s.csr_value(csr::kMepc), fault_pc) << side;
  });
}

TEST(Sv39Priv, UserFetchFromSupervisorPageFaults) {
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull));  // no U bit
  install_satp(b);
  b.enter_priv(0);  // U-mode
  const std::uint64_t fault_pc = b.pc();
  b.addi(10, 0, 1);
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 12u) << side;
    EXPECT_EQ(s.csr_value(csr::kMtval), fault_pc) << side;
  });
}

TEST(Sv39Priv, UserModeRunsOnUserPages) {
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull | pv::kPteU));
  install_satp(b);
  b.enter_priv(0);
  b.li(5, 0x80084);
  b.slli(5, 5, 12);
  b.li(6, kMarker);
  b.sd(5, 6, 0);
  b.ld(10, 5, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.reg(10), static_cast<std::uint64_t>(kMarker)) << side;
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;
    EXPECT_EQ(static_cast<int>(s.priv()), static_cast<int>(Priv::kUser))
        << side;
  });
}

TEST(Sv39Priv, SumGatesSupervisorDataAccessToUserPages) {
  // Without SUM: S-mode load from a U page faults.
  expect_access_fault(kLeafRwad | pv::kPteU, false, 13);
  // With SUM set before the drop: the same load succeeds.
  riscv::ProgramBuilder b;
  b.li(5, 1);
  b.slli(5, 5, 18);  // mstatus.SUM
  b.csrrs(0, csr::kMstatus, 5);
  build_vm(b, kLeafRwad | pv::kPteU);
  load_va(b, 10);
  b.ld(11, 10, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.reg(11), static_cast<std::uint64_t>(kMarker)) << side;
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;
  });
}

TEST(Sv39Priv, MxrAllowsLoadsFromExecuteOnlyPages) {
  // Without MXR: execute-only leaf refuses loads.
  expect_access_fault(pv::kPteV | pv::kPteX | pv::kPteA, false, 13);
  // With MXR: the load reads through the X-only leaf.
  riscv::ProgramBuilder b;
  b.li(5, 1);
  b.slli(5, 5, 19);  // mstatus.MXR
  b.csrrs(0, csr::kMstatus, 5);
  build_vm(b, pv::kPteV | pv::kPteX | pv::kPteA);
  load_va(b, 10);
  b.ld(11, 10, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.reg(11), static_cast<std::uint64_t>(kMarker)) << side;
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;
  });
}

TEST(Sv39Ptw, SfenceVmaFlushesTheTlb) {
  riscv::ProgramBuilder b;
  store64(b, kDataPage2, 0, kMarker2);  // remap target, different marker
  build_vm(b, kLeafRwad);
  load_va(b, 10);
  b.ld(11, 10, 0);  // fills the TLB with the kDataPage leaf
  // Re-point L0[4] at kDataPage2 through the identity gigapage. No fence
  // yet: both implementations must keep serving the cached translation.
  store64(b, kL0Page, 32, pte(kDataPage2, kLeafRwad));
  b.ld(12, 10, 0);  // stale: still the old page (spec-legal until sfence)
  b.sfence_vma();
  b.ld(13, 10, 0);  // fresh walk: the new page
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.reg(11), static_cast<std::uint64_t>(kMarker)) << side;
    EXPECT_EQ(s.reg(12), static_cast<std::uint64_t>(kMarker)) << side;
    EXPECT_EQ(s.reg(13), static_cast<std::uint64_t>(kMarker2)) << side;
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;
  });
}

// ---- Randomized property: bug-free lockstep over priv/VM corpus ----------

/// Lockstep-diff `prog` on the `preset` backend (with `bugs`) against the
/// golden model.
mismatch::Report diff_traces(const char* preset, const Program& prog,
                             const rtl::BugInjections& bugs,
                             std::uint64_t max_steps = 512) {
  sim::Platform plat;
  plat.max_steps = max_steps;
  cov::CoverageDB db;
  const auto dut = make_backend(preset, bugs, db, plat);
  sim::IsaSim golden(plat);
  mismatch::MismatchDetector det;
  det.install_default_filters();
  dut->reset(prog);
  const sim::RunResult dr = dut->run();
  golden.reset(prog);
  const sim::RunResult gr = golden.run();
  return det.compare(dr.trace, gr.trace);
}

TEST(Sv39Property, RandomPrivVmProgramsLockstepClean) {
  // N generated privileged/VM programs, bug-free DUTs: the differential
  // harness must stay silent — any mismatch is a real divergence between
  // the golden model's and the DUTs' independently written
  // trap/translation implementations.
  corpus::CorpusConfig cc;
  cc.w_vm = 4.0;  // dense Sv39/priv stimulus
  corpus::CorpusGenerator gen(cc, 99);
  for (int p = 0; p < 1000; ++p) {
    const Program prog = gen.function();
    for (const char* preset : kDuts) {
      const mismatch::Report rep =
          diff_traces(preset, prog, rtl::BugInjections::none());
      EXPECT_TRUE(rep.mismatches.empty())
          << preset << " program " << p << ": " << rep.mismatches.size()
          << " mismatches, first signature: "
          << (rep.mismatches.empty() ? "" : rep.mismatches[0].signature);
    }
  }
}

/// A directed program must lockstep clean with injections off and diverge
/// with `bugs` on, on both backends.
void expect_detected(const Program& prog, const rtl::BugInjections& bugs) {
  for (const char* preset : kDuts) {
    const rtl::BugInjections clean = rtl::BugInjections::none();
    EXPECT_TRUE(diff_traces(preset, prog, clean).mismatches.empty()) << preset;
    EXPECT_FALSE(diff_traces(preset, prog, bugs).mismatches.empty()) << preset;
  }
}

// ---- The three injected trap/translation bugs must each be caught --------

TEST(Sv39BugInjection, WrongDelegationIsDetected) {
  riscv::ProgramBuilder b;
  b.li(5, 1 << 8);
  b.csrrs(0, csr::kMedeleg, 5);  // delegate ecall-from-U
  b.enter_priv(0);
  b.ecall();                     // golden: to S. buggy DUT: to M.
  b.csrrs(10, csr::kScause, 0);  // reads 8 in S, 0 in the buggy DUT's M
  rtl::BugInjections bugs = rtl::BugInjections::none();
  bugs.wrong_delegation = true;
  expect_detected(b.seal(), bugs);
}

TEST(Sv39BugInjection, SkipPermCheckIsDetected) {
  // Read-only identity mapping; a store must raise store-page-fault. The
  // buggy LSU skips the W check and the store retires.
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16,
          pte(0x80000, pv::kPteV | pv::kPteR | pv::kPteX | pv::kPteA |
                           pv::kPteD));
  install_satp(b);
  b.enter_priv(1);
  b.li(5, 0x80084);
  b.slli(5, 5, 12);
  b.li(6, kMarker);
  b.sd(5, 6, 0);
  rtl::BugInjections bugs = rtl::BugInjections::none();
  bugs.skip_perm_check = true;
  expect_detected(b.seal(), bugs);
}

TEST(Sv39BugInjection, StaleTlbIsDetected) {
  // Warm the TLB through a writable gigapage, downgrade the mapping to
  // read-only, then rewrite satp (no sfence). The golden model flushes on
  // the satp write and faults the next store; the buggy TLB serves the
  // stale writable leaf and the store retires.
  riscv::ProgramBuilder b;
  store64(b, kRootPage, 16, pte(0x80000, kGigaFull));
  install_satp(b);
  b.enter_priv(1);
  b.li(10, 0x80084);
  b.slli(10, 10, 12);
  b.li(11, kMarker);
  b.sd(10, 11, 0);  // warms the data-page TLB entry (writable)
  store64(b, kRootPage, 16,
          pte(0x80000, pv::kPteV | pv::kPteR | pv::kPteX | pv::kPteA |
                           pv::kPteD));  // downgrade to read-only
  b.csrrs(5, csr::kSatp, 0);
  b.csrrw(0, csr::kSatp, 5);  // same value: flushes the golden TLB only
  b.sd(10, 11, 8);            // golden: fault 15. buggy DUT: retires.
  rtl::BugInjections bugs = rtl::BugInjections::none();
  bugs.stale_tlb = true;
  expect_detected(b.seal(), bugs);
}

TEST(Sv39BugInjection, GeneratedCorpusDetectsEachInjection) {
  // Acceptance-level check: for every injected trap/translation bug, some
  // generator-produced test (not a hand-written one) must expose it.
  corpus::CorpusConfig cc;
  cc.w_vm = 4.0;
  for (const char* preset : kDuts) {
    for (int bug = 0; bug < 3; ++bug) {
      rtl::BugInjections bugs = rtl::BugInjections::none();
      if (bug == 0) bugs.wrong_delegation = true;
      if (bug == 1) bugs.skip_perm_check = true;
      if (bug == 2) bugs.stale_tlb = true;
      corpus::CorpusGenerator gen(cc, 4242);
      bool detected = false;
      for (int p = 0; p < 400 && !detected; ++p) {
        const Program prog = gen.function();
        detected = !diff_traces(preset, prog, bugs).mismatches.empty();
      }
      EXPECT_TRUE(detected)
          << preset << ": bug " << bug << " evaded 400 generated tests";
    }
  }
}

}  // namespace
}  // namespace chatfuzz
