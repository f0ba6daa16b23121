// Bug hunt: reproduces the paper's §V-B findings with directed test
// programs — each program triggers one of the RocketCore deviations, the
// Mismatch Detector flags the divergence, and the classifier names it.
// Each program is replayed exactly as a default `chatfuzz fuzz` campaign
// would run it.
//
//   $ ./examples/bug_hunt
#include <cstdio>
#include <vector>

#include "core/replay.h"
#include "mismatch/detect.h"
#include "riscv/builder.h"
#include "riscv/disasm.h"
#include "riscv/encode.h"

using namespace chatfuzz;
using riscv::Opcode;

namespace {

struct Scenario {
  const char* title;
  std::vector<std::uint32_t> program;
};

std::vector<Scenario> build_scenarios() {
  std::vector<Scenario> out;
  {
    // Bug1 (CWE-1202): store into an already-fetched I$ line, no FENCE.I.
    riscv::ProgramBuilder b;
    const std::uint32_t li99 = riscv::enc_i(Opcode::kAddi, 10, 0, 99);
    b.li(11, static_cast<std::int32_t>(li99));
    b.auipc(12, 0);
    b.sw(12, 11, 8);   // patch the next instruction in memory
    b.li(10, 1);       // DUT executes this stale word; golden the patch
    out.push_back({"Bug1: self-modifying code without FENCE.I", b.seal()});
  }
  {
    // Bug2 (CWE-440): mul writeback missing from the DUT trace.
    riscv::ProgramBuilder b;
    b.li(10, 6).li(11, 7).mul(12, 10, 11);
    out.push_back({"Bug2: tracer drops MUL/DIV writeback", b.seal()});
  }
  {
    // Finding1: simultaneous misaligned + access-fault exception.
    riscv::ProgramBuilder b;
    b.li(10, 0x1001);  // odd address far below RAM
    b.lw(11, 10, 0);
    out.push_back({"Finding1: exception priority (misaligned vs fault)", b.seal()});
  }
  {
    // Finding2: AMOOR.D with rd = x0 (the paper's exact example).
    riscv::ProgramBuilder b;
    b.raw(riscv::enc_amo(Opcode::kAmoOrD, 0, 4, 11));
    out.push_back({"Finding2: AMOOR.D with rd=x0", b.seal()});
  }
  {
    // Finding3: backward jump with rd=x0 leaks a trace write to x0.
    riscv::ProgramBuilder b;
    b.branch_to(Opcode::kBeq, 5, 5, "fwd");
    b.label("back");
    b.ecall();
    b.label("fwd");
    b.jal_to(0, "back");
    out.push_back({"Finding3: x0 write records in the trace", b.seal()});
  }
  return out;
}

}  // namespace

int main() {
  const core::CampaignConfig cfg;
  mismatch::MismatchDetector detector;
  detector.install_default_filters();

  for (const Scenario& sc : build_scenarios()) {
    std::printf("==============================================================\n");
    std::printf("%s\n", sc.title);
    std::printf("--------------------------------------------------------------\n");
    std::printf("%s", riscv::disasm_program(sc.program,
                                            cfg.platform.ram_base).c_str());

    const mismatch::Report rep = core::replay_test(sc.program, cfg);
    detector.accumulate(rep);

    if (rep.mismatches.empty()) {
      std::printf("  (no mismatch)\n\n");
      continue;
    }
    for (const auto& m : rep.mismatches) {
      std::printf("  -> %-14s %s\n", mismatch::kind_name(m.kind),
                  mismatch::finding_name(m.finding));
      std::printf("     dut:  %s\n", m.dut.to_string().c_str());
      std::printf("     gold: %s\n", m.golden.to_string().c_str());
    }
    std::printf("\n");
  }

  std::printf("==============================================================\n");
  std::printf("campaign totals: raw=%zu unique=%zu distinct findings=%zu\n",
              detector.total_raw(), detector.unique_count(),
              detector.findings_seen().size());
  return 0;
}
