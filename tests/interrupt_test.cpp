// CLINT / interrupt-stimulus tests: the device model, the M-mode interrupt
// entry in the golden model and both DUT backends, their lockstep agreement
// (interrupts must never create false mismatches), and the coverage
// consequence — the in-order DUT's irq.pending condition points leave the
// unreachable tail.
#include <gtest/gtest.h>

#include <memory>

#include "isasim/sim.h"
#include "riscv/builder.h"
#include "riscv/csr.h"
#include "riscv/encode.h"
#include "rtlsim/core.h"
#include "rtlsim/dut.h"

namespace chatfuzz::sim {
namespace {

using riscv::Opcode;
namespace csr = riscv::csr;

Platform clint_platform() {
  Platform p;
  p.max_steps = 2048;
  p.clint_enabled = true;
  return p;
}

/// li for full 32-bit CLINT addresses (0x0200_0000 etc.), with the lui/addi
/// carry handled for low parts >= 0x800.
void li_addr(riscv::ProgramBuilder& b, unsigned rd, std::uint64_t addr) {
  const auto value = static_cast<std::int32_t>(addr);
  const std::int32_t hi = (value + 0x800) >> 12;
  const std::int32_t lo = value - (hi << 12);
  b.lui(rd, hi);
  b.addi(rd, rd, lo);
}

/// Program: enable MTIE+MIE, arm the timer at `cmp`, then run `pad` nops.
std::vector<std::uint32_t> timer_program(const Platform& plat,
                                         std::uint64_t cmp, int pad = 8) {
  riscv::ProgramBuilder b(plat.ram_base);
  li_addr(b, 5, plat.clint_base + ClintState::kMtimecmpOff);
  b.li(6, static_cast<std::int32_t>(cmp));
  b.sd(5, 6, 0);                              // mtimecmp = cmp
  b.li(7, 1 << 7);                            // MTIE
  b.csrrs(0, csr::kMie, 7);
  b.li(7, 1 << 3);                            // mstatus.MIE
  b.csrrs(0, csr::kMstatus, 7);
  for (int i = 0; i < pad; ++i) b.addi(0, 0, 0);
  return b.seal();
}

// ---- device model -----------------------------------------------------------

TEST(ClintStateTest, RegisterMapAndPending) {
  Platform plat = clint_platform();
  ClintState c;
  EXPECT_TRUE(c.contains(plat, plat.clint_base));
  EXPECT_TRUE(c.contains(plat, plat.clint_base + ClintState::kMtimeOff));
  EXPECT_FALSE(c.contains(plat, plat.clint_base + ClintState::kWindow));
  EXPECT_FALSE(c.contains(Platform{}, plat.clint_base));  // disabled

  EXPECT_EQ(c.pending_mip(), 0u);
  c.write(plat, plat.clint_base + ClintState::kMsipOff, 4, 1);
  EXPECT_EQ(c.pending_mip(), mip::kMsip);
  c.clear_source(mip::kCauseMsi);
  EXPECT_EQ(c.pending_mip(), 0u);

  c.write(plat, plat.clint_base + ClintState::kMtimecmpOff, 8, 5);
  for (int i = 0; i < 5; ++i) c.tick();
  EXPECT_EQ(c.pending_mip(), mip::kMtip);
  c.clear_source(mip::kCauseMti);
  EXPECT_EQ(c.pending_mip(), 0u);  // mtimecmp re-armed at ~0
}

TEST(ClintStateTest, RejectsBadOffsetsAndSizes) {
  Platform plat = clint_platform();
  ClintState c;
  std::uint64_t v = 0;
  EXPECT_FALSE(c.read(plat, plat.clint_base + 8, 8, v));        // unmapped
  EXPECT_FALSE(c.read(plat, plat.clint_base, 8, v));            // msip is 4B
  EXPECT_FALSE(c.write(plat, plat.clint_base + ClintState::kMtimeOff, 4, 1));
  EXPECT_TRUE(c.read(plat, plat.clint_base + ClintState::kMtimeOff, 8, v));
}

// ---- golden model ------------------------------------------------------------

TEST(IsaSimInterruptTest, TimerInterruptEntersHandlerState) {
  const Platform plat = clint_platform();
  IsaSim sim(plat);
  sim.reset(timer_program(plat, 6));
  sim.run();
  // mcause must show the timer interrupt with the interrupt flag.
  EXPECT_EQ(sim.csr_value(csr::kMcause), mip::kInterruptFlag | mip::kCauseMti);
  // The source was acknowledged: MTIP no longer pending.
  EXPECT_EQ(sim.csr_value(csr::kMip) & mip::kMtip, 0u);
}

TEST(IsaSimInterruptTest, SoftwareInterruptViaMsip) {
  const Platform plat = clint_platform();
  riscv::ProgramBuilder b(plat.ram_base);
  b.li(7, (1 << 3));
  b.csrrs(0, csr::kMie, 7);        // MSIE
  b.csrrs(0, csr::kMstatus, 7);    // mstatus.MIE (same bit position)
  li_addr(b, 5, plat.clint_base + ClintState::kMsipOff);
  b.li(6, 1);
  b.sw(5, 6, 0);                   // msip = 1
  b.addi(0, 0, 0);
  b.addi(0, 0, 0);
  IsaSim sim(plat);
  sim.reset(b.seal());
  sim.run();
  EXPECT_EQ(sim.csr_value(csr::kMcause), mip::kInterruptFlag | mip::kCauseMsi);
}

TEST(IsaSimInterruptTest, MaskedWhenMieClear) {
  const Platform plat = clint_platform();
  riscv::ProgramBuilder b(plat.ram_base);
  li_addr(b, 5, plat.clint_base + ClintState::kMtimecmpOff);
  b.li(6, 2);
  b.sd(5, 6, 0);  // timer pending almost immediately...
  b.li(7, 1 << 7);
  b.csrrs(0, csr::kMie, 7);  // MTIE set, but mstatus.MIE stays 0 in M-mode
  for (int i = 0; i < 6; ++i) b.addi(0, 0, 0);
  IsaSim sim(plat);
  sim.reset(b.seal());
  sim.run();
  EXPECT_EQ(sim.csr_value(csr::kMcause), 0u);          // never taken
  EXPECT_NE(sim.csr_value(csr::kMip) & mip::kMtip, 0u);  // still pending
}

TEST(IsaSimInterruptTest, MmioReadsObserveTickingTime) {
  const Platform plat = clint_platform();
  riscv::ProgramBuilder b(plat.ram_base);
  li_addr(b, 5, plat.clint_base + ClintState::kMtimeOff);
  b.ld(12, 5, 0);   // first read
  b.ld(13, 5, 0);   // later read: strictly larger
  IsaSim sim(plat);
  sim.reset(b.seal());
  sim.run();
  EXPECT_GT(sim.reg(13), sim.reg(12));
}

TEST(IsaSimInterruptTest, ClintDisabledFaultsAsBefore) {
  Platform plat = clint_platform();
  plat.clint_enabled = false;
  IsaSim sim(plat);
  sim.reset(timer_program(plat, 6));
  const RunResult r = sim.run();
  // The sd to the CLINT address must raise a store access fault.
  bool faulted = false;
  for (const CommitRecord& rec : r.trace) {
    faulted = faulted ||
              rec.exception == riscv::Exception::kStoreAccessFault;
  }
  EXPECT_TRUE(faulted);
  EXPECT_EQ(sim.csr_value(csr::kMcause),
            static_cast<std::uint64_t>(
                riscv::Exception::kStoreAccessFault));
}

// ---- DUT model + lockstep ------------------------------------------------------

class InterruptLockstep : public ::testing::Test {
 protected:
  /// Run the golden model and each DUT backend (the in-order `rocket` and
  /// the out-of-order `ooo` preset, injections off) and require identical
  /// traces.
  void lockstep(const std::vector<std::uint32_t>& prog) {
    for (const char* preset : {"rocket", "ooo"}) {
      SCOPED_TRACE(preset);
      lockstep_on(preset, prog);
    }
  }

 private:
  void lockstep_on(const char* preset, const std::vector<std::uint32_t>& prog) {
    const Platform plat = clint_platform();
    cov::CoverageDB db;
    rtl::CoreConfig cfg;
    ASSERT_TRUE(rtl::dut_preset(preset, cfg));
    cfg.bugs = rtl::BugInjections::none();
    const std::unique_ptr<rtl::DutCore> dut = rtl::make_dut(cfg, db, plat);
    IsaSim golden(plat);
    dut->reset(prog);
    golden.reset(prog);
    const RunResult a = dut->run();
    const RunResult bres = golden.run();
    ASSERT_EQ(a.trace.size(), bres.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      const CommitRecord& x = a.trace[i];
      const CommitRecord& y = bres.trace[i];
      EXPECT_EQ(x.pc, y.pc) << "step " << i;
      EXPECT_EQ(x.instr, y.instr) << "step " << i;
      EXPECT_EQ(x.has_rd_write, y.has_rd_write) << "step " << i;
      EXPECT_EQ(x.rd_value, y.rd_value) << "step " << i;
      EXPECT_EQ(static_cast<int>(x.exception), static_cast<int>(y.exception))
          << "step " << i;
      EXPECT_EQ(static_cast<int>(x.priv), static_cast<int>(y.priv))
          << "step " << i;
    }
  }
};

TEST_F(InterruptLockstep, TimerInterruptProgram) {
  lockstep(timer_program(clint_platform(), 8, 16));
}

TEST_F(InterruptLockstep, SoftwareInterruptProgram) {
  const Platform plat = clint_platform();
  riscv::ProgramBuilder b(plat.ram_base);
  b.li(7, (1 << 3));
  b.csrrs(0, csr::kMie, 7);
  b.csrrs(0, csr::kMstatus, 7);
  li_addr(b, 5, plat.clint_base + ClintState::kMsipOff);
  b.li(6, 1);
  b.sw(5, 6, 0);
  b.mul(12, 11, 13);
  b.addi(12, 12, 7);
  lockstep(b.seal());
}

TEST_F(InterruptLockstep, InterruptDuringUserMode) {
  const Platform plat = clint_platform();
  riscv::ProgramBuilder b(plat.ram_base);
  // Arm the timer, then drop to U-mode; M interrupts fire there regardless
  // of mstatus.MIE.
  li_addr(b, 5, plat.clint_base + ClintState::kMtimecmpOff);
  b.li(6, 14);
  b.sd(5, 6, 0);
  b.li(7, 1 << 7);
  b.csrrs(0, csr::kMie, 7);
  b.li(28, 3);
  b.raw(riscv::enc_shift(Opcode::kSlli, 28, 28, 11));
  b.raw(riscv::enc_csr(Opcode::kCsrrc, 0, csr::kMstatus, 28));  // MPP=U
  b.auipc(29, 0);
  b.addi(29, 29, 16);
  b.csrrw(0, csr::kMepc, 29);
  b.raw(riscv::enc_sys(Opcode::kMret));
  for (int i = 0; i < 12; ++i) b.addi(12, 12, 1);
  lockstep(b.seal());
}

TEST_F(InterruptLockstep, MmioBadOffsetFaultsIdentically) {
  const Platform plat = clint_platform();
  riscv::ProgramBuilder b(plat.ram_base);
  li_addr(b, 5, plat.clint_base + 0x100);  // unmapped hole in the window
  b.ld(12, 5, 0);
  b.addi(0, 0, 0);
  lockstep(b.seal());
}

TEST(RtlInterruptCoverage, IrqPendingPointsBecomeReachable) {
  const Platform plat = clint_platform();
  cov::CoverageDB db;
  rtl::RtlCore dut(rtl::CoreConfig::rocket(), db, plat);
  dut.reset(timer_program(plat, 8, 16));
  dut.run();
  bool any_true = false;
  for (std::size_t i = 0; i < db.num_points(); ++i) {
    if (db.point_name(static_cast<cov::PointId>(i)).starts_with(
            "irq.pending")) {
      any_true = any_true || db.bin_covered(2 * i + 1);
    }
  }
  EXPECT_TRUE(any_true);
}

TEST(RtlInterruptCoverage, UnreachableWithoutClint) {
  Platform plat;
  plat.max_steps = 2048;
  cov::CoverageDB db;
  rtl::RtlCore dut(rtl::CoreConfig::rocket(), db, plat);
  dut.reset(timer_program(plat, 8, 16));  // program faults at the MMIO store
  dut.run();
  for (std::size_t i = 0; i < db.num_points(); ++i) {
    if (db.point_name(static_cast<cov::PointId>(i)).starts_with(
            "irq.pending")) {
      EXPECT_FALSE(db.bin_covered(2 * i + 1));
    }
  }
}

}  // namespace
}  // namespace chatfuzz::sim
