// Privileged-architecture unit suite: mstatus/sstatus WARL legalization,
// the MPP/SPP/MPIE/SPIE stacks across trap entry and mret/sret, medeleg
// masking edge cases, and min-privilege CSR access faults — asserted
// against the golden IsaSim and against bug-free builds of both DUT
// backends (in-order and out-of-order, which share one trap unit), since a
// trap-unit divergence between a DUT and the golden model is exactly what
// the differential harness exists to catch.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coverage/cover.h"
#include "isasim/platform.h"
#include "isasim/sim.h"
#include "riscv/builder.h"
#include "riscv/csr.h"
#include "rtlsim/dut.h"

namespace chatfuzz {
namespace {

namespace csr = riscv::csr;
namespace ms = sim::mstatus;
using riscv::Priv;
using Program = std::vector<std::uint32_t>;

/// Run `prog` to completion on the golden model and on bug-free builds of
/// both DUT backends (the in-order `rocket` and the out-of-order `ooo`
/// preset), then apply the same assertions to each. The check receives a
/// side label for failure messages and the finished simulator.
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
  for (const char* preset : {"rocket", "ooo"}) {
    cov::CoverageDB db;
    rtl::CoreConfig core;
    ASSERT_TRUE(rtl::dut_preset(preset, core));
    core.bugs = rtl::BugInjections::none();
    const std::unique_ptr<rtl::DutCore> dut = rtl::make_dut(core, db, plat);
    dut->reset(prog);
    dut->run();
    check(preset, *dut);
  }
}

constexpr std::uint64_t kStatusWritable = ms::kSie | ms::kMie | ms::kSpie |
                                          ms::kMpie | ms::kSpp | ms::kMppMask |
                                          ms::kSum | ms::kMxr;
constexpr std::uint64_t kSstatusBits =
    ms::kSie | ms::kSpie | ms::kSpp | ms::kSum | ms::kMxr;

TEST(PrivCsr, MstatusWritesAreMasked) {
  riscv::ProgramBuilder b;
  b.li(5, -1);
  b.csrrw(0, csr::kMstatus, 5);
  run_both(b.seal(), [](const char* side, const auto& s) {
    // All-ones folds to exactly the writable field set; MPP=0b11 (M) is a
    // legal value and survives.
    EXPECT_EQ(s.csr_value(csr::kMstatus), kStatusWritable) << side;
  });
}

TEST(PrivCsr, MstatusReservedMppFoldsToU) {
  riscv::ProgramBuilder b;
  b.li(5, 2 << 11);  // MPP = 0b10: reserved (no H mode)
  b.csrrw(0, csr::kMstatus, 5);
  b.csrrs(10, csr::kMstatus, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMstatus) & ms::kMppMask, 0u) << side;
    EXPECT_EQ(s.reg(10) & ms::kMppMask, 0u) << side;
  });
}

TEST(PrivCsr, SstatusIsAMaskedViewOfMstatus) {
  riscv::ProgramBuilder b;
  b.li(5, -1);
  b.csrrw(0, csr::kSstatus, 5);  // writes only the S-view bits
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kSstatus), kSstatusBits) << side;
    // The write must not have leaked into M-only fields.
    EXPECT_EQ(s.csr_value(csr::kMstatus) & (ms::kMie | ms::kMpie), 0u) << side;
    EXPECT_EQ(s.csr_value(csr::kMstatus) & kSstatusBits, kSstatusBits) << side;
  });
}

TEST(PrivCsr, MedelegMidelegMaskEdgeCases) {
  riscv::ProgramBuilder b;
  b.li(5, -1);
  b.csrrw(0, csr::kMedeleg, 5);
  b.csrrw(0, csr::kMideleg, 5);
  run_both(b.seal(), [](const char* side, const auto& s) {
    // Delegable synchronous causes only: bits 10 (reserved), 11 (ecall from
    // M) and 14 (reserved) must read back zero.
    EXPECT_EQ(s.csr_value(csr::kMedeleg), csr::kMedelegMask) << side;
    EXPECT_EQ(s.csr_value(csr::kMedeleg) & (1u << 11), 0u) << side;
    EXPECT_EQ(s.csr_value(csr::kMideleg), csr::kMidelegMask) << side;
  });
}

TEST(PrivTrap, MachineTrapPushesMstatusStack) {
  riscv::ProgramBuilder b;
  b.li(5, static_cast<std::int32_t>(ms::kMie));
  b.csrrs(0, csr::kMstatus, 5);  // MIE=1 so the stack push is observable
  b.ecall();                     // cause 11, stays in M
  const std::uint64_t ecall_pc = b.pc() - 4;
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 11u) << side;
    EXPECT_EQ(s.csr_value(csr::kMepc), ecall_pc) << side;
    const std::uint64_t st = s.csr_value(csr::kMstatus);
    EXPECT_EQ(st & ms::kMie, 0u) << side;       // MIE <= 0
    EXPECT_NE(st & ms::kMpie, 0u) << side;      // MPIE <= old MIE
    EXPECT_EQ((st & ms::kMppMask) >> ms::kMppShift, 3u) << side;  // MPP <= M
    EXPECT_EQ(static_cast<int>(s.priv()), static_cast<int>(Priv::kMachine))
        << side;
  });
}

TEST(PrivTrap, DelegatedTrapPushesSstatusStack) {
  riscv::ProgramBuilder b;
  b.li(5, 1 << 8);
  b.csrrs(0, csr::kMedeleg, 5);  // delegate ecall-from-U
  b.li(5, static_cast<std::int32_t>(ms::kSie));
  b.csrrs(0, csr::kMstatus, 5);  // SIE=1 so SPIE<=SIE is observable
  b.enter_priv(0);               // drop to U
  const std::uint64_t ecall_pc = b.pc();
  b.ecall();                     // cause 8 -> S-mode trampoline
  b.csrrs(10, csr::kScause, 0);  // now in S: legal reads
  b.csrrs(11, csr::kSepc, 0);
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(static_cast<int>(s.priv()), static_cast<int>(Priv::kSupervisor))
        << side;
    EXPECT_EQ(s.reg(10), 8u) << side;
    EXPECT_EQ(s.reg(11), ecall_pc) << side;
    EXPECT_EQ(s.csr_value(csr::kScause), 8u) << side;
    // The M-mode trap CSRs must be untouched by a delegated trap.
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;
    const std::uint64_t st = s.csr_value(csr::kSstatus);
    EXPECT_EQ(st & ms::kSpp, 0u) << side;   // SPP <= U
    EXPECT_NE(st & ms::kSpie, 0u) << side;  // SPIE <= old SIE
    EXPECT_EQ(st & ms::kSie, 0u) << side;   // SIE <= 0
  });
}

TEST(PrivTrap, TrapFromMachineIsNeverDelegated) {
  riscv::ProgramBuilder b;
  b.li(5, 1 << 11 | 0x7ff);      // try to delegate everything incl. cause 11
  b.csrrs(0, csr::kMedeleg, 5);
  b.ecall();                     // from M: must go to the M trampoline
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 11u) << side;
    EXPECT_EQ(s.csr_value(csr::kScause), 0u) << side;
    EXPECT_EQ(static_cast<int>(s.priv()), static_cast<int>(Priv::kMachine))
        << side;
  });
}

TEST(PrivTrap, MretSretWalkDownThePrivilegeLadder) {
  riscv::ProgramBuilder b;
  b.enter_priv(1);   // M -> S
  b.auipc(6, 0);
  b.addi(6, 6, 16);
  b.csrrw(0, csr::kSepc, 6);  // resume just past the sret
  b.sret();          // SPP=0 -> U
  b.addi(10, 0, 7);  // still executes, in U
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(static_cast<int>(s.priv()), static_cast<int>(Priv::kUser))
        << side;
    EXPECT_EQ(s.reg(10), 7u) << side;
  });
}

TEST(PrivTrap, SretInUserModeIsIllegal) {
  riscv::ProgramBuilder b;
  b.enter_priv(0);  // U
  const std::uint64_t sret_pc = b.pc();
  b.sret();         // illegal from U -> M trampoline
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 2u) << side;
    EXPECT_EQ(s.csr_value(csr::kMepc), sret_pc) << side;
    EXPECT_EQ(static_cast<int>(s.priv()), static_cast<int>(Priv::kMachine))
        << side;
  });
}

TEST(PrivCsr, UserModeCsrAccessFaults) {
  riscv::ProgramBuilder b;
  b.enter_priv(0);               // U
  const std::uint64_t fault_pc = b.pc();
  b.csrrs(10, csr::kMstatus, 0); // min_priv M: illegal from U
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 2u) << side;
    EXPECT_EQ(s.csr_value(csr::kMepc), fault_pc) << side;
  });
}

TEST(PrivCsr, UserModeSupervisorCsrAccessFaults) {
  riscv::ProgramBuilder b;
  b.enter_priv(0);
  const std::uint64_t fault_pc = b.pc();
  b.csrrs(10, csr::kSscratch, 0);  // min_priv S: illegal from U
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 2u) << side;
    EXPECT_EQ(s.csr_value(csr::kMepc), fault_pc) << side;
  });
}

TEST(PrivCsr, SupervisorModeMachineCsrWriteFaults) {
  riscv::ProgramBuilder b;
  b.enter_priv(1);               // S
  const std::uint64_t fault_pc = b.pc();
  b.csrrw(0, csr::kMscratch, 5); // M-only from S
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 2u) << side;
    EXPECT_EQ(s.csr_value(csr::kMepc), fault_pc) << side;
  });
}

TEST(PrivCsr, SupervisorCsrsWorkInSupervisorMode) {
  riscv::ProgramBuilder b;
  b.li(5, 0x123);
  b.csrrw(0, csr::kSscratch, 5);  // from M
  b.enter_priv(1);                // S
  b.csrrs(10, csr::kSscratch, 0); // legal in S
  b.li(6, 0x456);
  b.csrrw(0, csr::kSscratch, 6);  // write from S
  b.csrrs(11, csr::kSscratch, 0);
  run_both(b.seal(), [](const char* side, const auto& s) {
    EXPECT_EQ(s.reg(10), 0x123u) << side;
    EXPECT_EQ(s.reg(11), 0x456u) << side;
    EXPECT_EQ(s.csr_value(csr::kMcause), 0u) << side;  // no trap anywhere
  });
}

TEST(PrivTrap, SfenceVmaIllegalFromUserMode) {
  riscv::ProgramBuilder b;
  b.enter_priv(0);
  const std::uint64_t fault_pc = b.pc();
  b.sfence_vma();
  run_both(b.seal(), [=](const char* side, const auto& s) {
    EXPECT_EQ(s.csr_value(csr::kMcause), 2u) << side;
    EXPECT_EQ(s.csr_value(csr::kMepc), fault_pc) << side;
  });
}

}  // namespace
}  // namespace chatfuzz
