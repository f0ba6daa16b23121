// Pure integer ALU / multiplier / divider semantics as free functions.
// Used by the RTL-level core model; the golden model (isasim) carries its
// own inline implementation so the two execution paths stay independent for
// differential testing (see README, "What stands in for the paper's
// setup").
#pragma once

#include <cstdint>

#include "riscv/instr.h"

namespace chatfuzz::riscv {

inline std::uint64_t alu_sext32(std::uint64_t v) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

/// Evaluate a register-register / register-immediate ALU or M-extension op.
/// `b` is rs2 for R-format and the sign-extended immediate (or shamt) for
/// I-format ops. Returns the 64-bit result written to rd.
inline std::uint64_t alu_eval(Opcode op, std::uint64_t a, std::uint64_t b) {
  const auto sa = static_cast<std::int64_t>(a);
  const auto sb = static_cast<std::int64_t>(b);
  switch (op) {
    case Opcode::kAddi: case Opcode::kAdd: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kSlti: case Opcode::kSlt: return sa < sb ? 1 : 0;
    case Opcode::kSltiu: case Opcode::kSltu: return a < b ? 1 : 0;
    case Opcode::kXori: case Opcode::kXor: return a ^ b;
    case Opcode::kOri: case Opcode::kOr: return a | b;
    case Opcode::kAndi: case Opcode::kAnd: return a & b;
    case Opcode::kSlli: case Opcode::kSll: return a << (b & 63);
    case Opcode::kSrli: case Opcode::kSrl: return a >> (b & 63);
    case Opcode::kSrai: case Opcode::kSra:
      return static_cast<std::uint64_t>(sa >> (b & 63));
    case Opcode::kAddiw: case Opcode::kAddw: return alu_sext32(a + b);
    case Opcode::kSubw: return alu_sext32(a - b);
    case Opcode::kSlliw: case Opcode::kSllw: return alu_sext32(a << (b & 31));
    case Opcode::kSrliw: case Opcode::kSrlw:
      return alu_sext32(static_cast<std::uint32_t>(a) >> (b & 31));
    case Opcode::kSraiw: case Opcode::kSraw:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(a) >> (b & 31)));
    case Opcode::kMul: return a * b;
    case Opcode::kMulh:
      return static_cast<std::uint64_t>(
          (static_cast<__int128>(sa) * static_cast<__int128>(sb)) >> 64);
    case Opcode::kMulhsu:
      return static_cast<std::uint64_t>(
          (static_cast<__int128>(sa) * static_cast<unsigned __int128>(b)) >> 64);
    case Opcode::kMulhu:
      return static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b)) >> 64);
    case Opcode::kDiv:
      if (b == 0) return ~0ull;
      if (sa == INT64_MIN && sb == -1) return a;
      return static_cast<std::uint64_t>(sa / sb);
    case Opcode::kDivu: return b == 0 ? ~0ull : a / b;
    case Opcode::kRem:
      if (b == 0) return a;
      if (sa == INT64_MIN && sb == -1) return 0;
      return static_cast<std::uint64_t>(sa % sb);
    case Opcode::kRemu: return b == 0 ? a : a % b;
    case Opcode::kMulw: return alu_sext32(a * b);
    case Opcode::kDivw: {
      const auto x = static_cast<std::int32_t>(a);
      const auto y = static_cast<std::int32_t>(b);
      std::int32_t q;
      if (y == 0) q = -1;
      else if (x == INT32_MIN && y == -1) q = x;
      else q = x / y;
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(q));
    }
    case Opcode::kDivuw: {
      const auto x = static_cast<std::uint32_t>(a);
      const auto y = static_cast<std::uint32_t>(b);
      return alu_sext32(y == 0 ? ~0u : x / y);
    }
    case Opcode::kRemw: {
      const auto x = static_cast<std::int32_t>(a);
      const auto y = static_cast<std::int32_t>(b);
      std::int32_t r;
      if (y == 0) r = x;
      else if (x == INT32_MIN && y == -1) r = 0;
      else r = x % y;
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(r));
    }
    case Opcode::kRemuw: {
      const auto x = static_cast<std::uint32_t>(a);
      const auto y = static_cast<std::uint32_t>(b);
      return alu_sext32(y == 0 ? x : x % y);
    }
    default: return 0;
  }
}

/// True for M-extension (multiplier/divider) opcodes — the ops whose
/// writeback the RocketCore tracer drops (paper Bug2, CWE-440).
inline bool is_muldiv(Opcode op) {
  return spec(op).ext == Ext::kM;
}

/// True for divider-path ops (multi-cycle in RocketCore).
inline bool is_div(Opcode op) {
  switch (op) {
    case Opcode::kDiv: case Opcode::kDivu: case Opcode::kRem:
    case Opcode::kRemu: case Opcode::kDivw: case Opcode::kDivuw:
    case Opcode::kRemw: case Opcode::kRemuw:
      return true;
    default:
      return false;
  }
}

}  // namespace chatfuzz::riscv
