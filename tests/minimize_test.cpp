// Test-case minimizer tests: reductions must preserve the exact mismatch
// signature, shrink padded reproducers back to their kernel, and leave
// clean inputs alone. Every test replays under the defaults `fuzz` runs with.
#include <gtest/gtest.h>

#include "core/replay.h"
#include "corpus/generator.h"
#include "riscv/builder.h"
#include "riscv/decode.h"
#include "riscv/encode.h"
#include "util/rng.h"

namespace chatfuzz::core {
namespace {

using riscv::Opcode;

const CampaignConfig kCfg;

Program padded_mul_repro(unsigned pad) {
  // A mul (Bug2 trigger) buried in ALU noise.
  riscv::ProgramBuilder b;
  Rng rng(3);
  for (unsigned i = 0; i < pad; ++i) {
    b.addi(static_cast<unsigned>(5 + i % 8),
           static_cast<unsigned>(5 + (i + 1) % 8),
           static_cast<std::int32_t>(rng.range(-100, 100)));
  }
  b.mul(12, 10, 11);
  for (unsigned i = 0; i < pad; ++i) {
    b.add(static_cast<unsigned>(5 + i % 8), 10, 11);
  }
  return b.seal();
}

TEST(Minimize, CleanInputReportsNoRepro) {
  riscv::ProgramBuilder b;
  b.li(10, 5).add(11, 10, 10);
  const MinimizeResult r = minimize(b.seal(), kCfg);
  EXPECT_FALSE(r.reproduced);
  EXPECT_TRUE(r.signature.empty());
}

TEST(Minimize, ShrinksPaddedBug2ReproToTheKernel) {
  const Program fat = padded_mul_repro(10);
  const MinimizeResult r = minimize(fat, kCfg);
  ASSERT_TRUE(r.reproduced);
  EXPECT_EQ(r.signature, "rd-presence:mul:dut-missing");
  EXPECT_LE(r.reduced.size(), 2u) << "mul plus at most one residual word";
  // The kernel instruction must survive.
  bool has_mul = false;
  for (std::uint32_t w : r.reduced) {
    if (riscv::decode(w).op == Opcode::kMul) has_mul = true;
  }
  EXPECT_TRUE(has_mul);
  EXPECT_EQ(r.original_size, fat.size());
  EXPECT_GT(r.tests_run, 1u);
}

TEST(Minimize, ReducedInputStillReproducesSameSignature) {
  const Program fat = padded_mul_repro(6);
  const MinimizeResult r = minimize(fat, kCfg);
  ASSERT_TRUE(r.reproduced);
  EXPECT_EQ(first_signature(r.reduced, kCfg), r.signature);
}

TEST(Minimize, PreservesFinding1Signature) {
  riscv::ProgramBuilder b;
  b.li(9, 123);
  b.li(10, 0x1001);
  b.li(11, 77);
  b.lw(12, 10, 0);  // misaligned + out of range: Finding1
  b.add(13, 11, 9);
  const MinimizeResult r = minimize(b.seal(), kCfg);
  ASSERT_TRUE(r.reproduced);
  EXPECT_NE(r.signature.find("exception:lw"), std::string::npos);
  EXPECT_LT(r.reduced.size(), 7u);
  EXPECT_EQ(first_signature(r.reduced, kCfg), r.signature);
}

TEST(Minimize, HandlesFuzzGeneratedMismatches) {
  // Property: for random fuzz inputs that mismatch, the minimizer always
  // returns a smaller-or-equal reproducer with the identical signature.
  Rng rng(9);
  int minimized = 0;
  for (int i = 0; i < 30 && minimized < 5; ++i) {
    const Program test = corpus::random_valid_program(rng, 24);
    const std::string sig = first_signature(test, kCfg);
    if (sig.empty()) continue;
    const MinimizeResult r = minimize(test, kCfg);
    ASSERT_TRUE(r.reproduced);
    EXPECT_EQ(r.signature, sig);
    EXPECT_LE(r.reduced.size(), test.size());
    EXPECT_EQ(first_signature(r.reduced, kCfg), sig);
    ++minimized;
  }
  EXPECT_GE(minimized, 3) << "fuzz inputs stopped producing mismatches?";
}

}  // namespace
}  // namespace chatfuzz::core
