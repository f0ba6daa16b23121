// RISC-V instruction model: opcode enumeration, encoding formats, and the
// decoded-instruction record shared by the encoder, decoder, disassembler,
// golden-model simulator and the RTL-level pipeline model.
//
// Scope: RV64I + M + A + Zicsr + Zifencei + privileged returns. This is the
// instruction surface RocketCore's integer pipeline exposes and is the
// surface the ChatFuzz paper fuzzes (floating point is out of scope for the
// reproduction; see README, "What stands in for the paper's setup").
#pragma once

#include <cstdint>
#include <string_view>

namespace chatfuzz::riscv {

/// Instruction encoding format. Determines which operand fields exist and
/// how the immediate is packed into the 32-bit word.
enum class Format {
  kR,        // rd, rs1, rs2           (register-register ALU)
  kI,        // rd, rs1, imm12         (ALU-immediate, loads, jalr)
  kIShift64, // rd, rs1, shamt[5:0]    (RV64 shifts)
  kIShift32, // rd, rs1, shamt[4:0]    (*W shifts)
  kS,        // rs1, rs2, imm12        (stores)
  kB,        // rs1, rs2, imm13        (branches, imm is byte offset)
  kU,        // rd, imm20<<12          (lui/auipc)
  kJ,        // rd, imm21              (jal, imm is byte offset)
  kFence,    // pred/succ ignored
  kSystem,   // fully fixed encoding (ecall/ebreak/mret/sret/wfi)
  kSfence,   // rs1(vaddr), rs2(asid), rd==0  (sfence.vma)
  kCsr,      // rd, csr, rs1
  kCsrImm,   // rd, csr, zimm5
  kAmo,      // rd, rs1(addr), rs2, aq/rl
  kLoadRes,  // lr: rd, rs1, rs2==0
};

/// ISA extension an opcode belongs to (used by the corpus generator to
/// control rare-instruction frequency, and by reports).
enum class Ext { kI, kM, kA, kZicsr, kZifencei, kPriv };

// X-macro master table: opcode id, mnemonic, format, match, mask, extension.
// `match`/`mask` follow the riscv-opcodes convention: an encoding `raw`
// denotes this instruction iff (raw & mask) == match.
#define CHATFUZZ_RISCV_OPCODES(X)                                              \
  /* RV64I: upper immediates & jumps */                                        \
  X(kLui,    "lui",    Format::kU, 0x00000037u, 0x0000007fu, Ext::kI)          \
  X(kAuipc,  "auipc",  Format::kU, 0x00000017u, 0x0000007fu, Ext::kI)          \
  X(kJal,    "jal",    Format::kJ, 0x0000006fu, 0x0000007fu, Ext::kI)          \
  X(kJalr,   "jalr",   Format::kI, 0x00000067u, 0x0000707fu, Ext::kI)          \
  /* Branches */                                                               \
  X(kBeq,    "beq",    Format::kB, 0x00000063u, 0x0000707fu, Ext::kI)          \
  X(kBne,    "bne",    Format::kB, 0x00001063u, 0x0000707fu, Ext::kI)          \
  X(kBlt,    "blt",    Format::kB, 0x00004063u, 0x0000707fu, Ext::kI)          \
  X(kBge,    "bge",    Format::kB, 0x00005063u, 0x0000707fu, Ext::kI)          \
  X(kBltu,   "bltu",   Format::kB, 0x00006063u, 0x0000707fu, Ext::kI)          \
  X(kBgeu,   "bgeu",   Format::kB, 0x00007063u, 0x0000707fu, Ext::kI)          \
  /* Loads */                                                                  \
  X(kLb,     "lb",     Format::kI, 0x00000003u, 0x0000707fu, Ext::kI)          \
  X(kLh,     "lh",     Format::kI, 0x00001003u, 0x0000707fu, Ext::kI)          \
  X(kLw,     "lw",     Format::kI, 0x00002003u, 0x0000707fu, Ext::kI)          \
  X(kLd,     "ld",     Format::kI, 0x00003003u, 0x0000707fu, Ext::kI)          \
  X(kLbu,    "lbu",    Format::kI, 0x00004003u, 0x0000707fu, Ext::kI)          \
  X(kLhu,    "lhu",    Format::kI, 0x00005003u, 0x0000707fu, Ext::kI)          \
  X(kLwu,    "lwu",    Format::kI, 0x00006003u, 0x0000707fu, Ext::kI)          \
  /* Stores */                                                                 \
  X(kSb,     "sb",     Format::kS, 0x00000023u, 0x0000707fu, Ext::kI)          \
  X(kSh,     "sh",     Format::kS, 0x00001023u, 0x0000707fu, Ext::kI)          \
  X(kSw,     "sw",     Format::kS, 0x00002023u, 0x0000707fu, Ext::kI)          \
  X(kSd,     "sd",     Format::kS, 0x00003023u, 0x0000707fu, Ext::kI)          \
  /* ALU immediate */                                                          \
  X(kAddi,   "addi",   Format::kI, 0x00000013u, 0x0000707fu, Ext::kI)          \
  X(kSlti,   "slti",   Format::kI, 0x00002013u, 0x0000707fu, Ext::kI)          \
  X(kSltiu,  "sltiu",  Format::kI, 0x00003013u, 0x0000707fu, Ext::kI)          \
  X(kXori,   "xori",   Format::kI, 0x00004013u, 0x0000707fu, Ext::kI)          \
  X(kOri,    "ori",    Format::kI, 0x00006013u, 0x0000707fu, Ext::kI)          \
  X(kAndi,   "andi",   Format::kI, 0x00007013u, 0x0000707fu, Ext::kI)          \
  X(kSlli,   "slli",   Format::kIShift64, 0x00001013u, 0xfc00707fu, Ext::kI)   \
  X(kSrli,   "srli",   Format::kIShift64, 0x00005013u, 0xfc00707fu, Ext::kI)   \
  X(kSrai,   "srai",   Format::kIShift64, 0x40005013u, 0xfc00707fu, Ext::kI)   \
  /* ALU register */                                                           \
  X(kAdd,    "add",    Format::kR, 0x00000033u, 0xfe00707fu, Ext::kI)          \
  X(kSub,    "sub",    Format::kR, 0x40000033u, 0xfe00707fu, Ext::kI)          \
  X(kSll,    "sll",    Format::kR, 0x00001033u, 0xfe00707fu, Ext::kI)          \
  X(kSlt,    "slt",    Format::kR, 0x00002033u, 0xfe00707fu, Ext::kI)          \
  X(kSltu,   "sltu",   Format::kR, 0x00003033u, 0xfe00707fu, Ext::kI)          \
  X(kXor,    "xor",    Format::kR, 0x00004033u, 0xfe00707fu, Ext::kI)          \
  X(kSrl,    "srl",    Format::kR, 0x00005033u, 0xfe00707fu, Ext::kI)          \
  X(kSra,    "sra",    Format::kR, 0x40005033u, 0xfe00707fu, Ext::kI)          \
  X(kOr,     "or",     Format::kR, 0x00006033u, 0xfe00707fu, Ext::kI)          \
  X(kAnd,    "and",    Format::kR, 0x00007033u, 0xfe00707fu, Ext::kI)          \
  /* RV64 *W immediate & register */                                           \
  X(kAddiw,  "addiw",  Format::kI, 0x0000001bu, 0x0000707fu, Ext::kI)          \
  X(kSlliw,  "slliw",  Format::kIShift32, 0x0000101bu, 0xfe00707fu, Ext::kI)   \
  X(kSrliw,  "srliw",  Format::kIShift32, 0x0000501bu, 0xfe00707fu, Ext::kI)   \
  X(kSraiw,  "sraiw",  Format::kIShift32, 0x4000501bu, 0xfe00707fu, Ext::kI)   \
  X(kAddw,   "addw",   Format::kR, 0x0000003bu, 0xfe00707fu, Ext::kI)          \
  X(kSubw,   "subw",   Format::kR, 0x4000003bu, 0xfe00707fu, Ext::kI)          \
  X(kSllw,   "sllw",   Format::kR, 0x0000103bu, 0xfe00707fu, Ext::kI)          \
  X(kSrlw,   "srlw",   Format::kR, 0x0000503bu, 0xfe00707fu, Ext::kI)          \
  X(kSraw,   "sraw",   Format::kR, 0x4000503bu, 0xfe00707fu, Ext::kI)          \
  /* Fences */                                                                 \
  X(kFence,  "fence",  Format::kFence, 0x0000000fu, 0x0000707fu, Ext::kI)      \
  X(kFenceI, "fence.i", Format::kFence, 0x0000100fu, 0x0000707fu, Ext::kZifencei) \
  /* System (fully fixed) */                                                   \
  X(kEcall,  "ecall",  Format::kSystem, 0x00000073u, 0xffffffffu, Ext::kI)     \
  X(kEbreak, "ebreak", Format::kSystem, 0x00100073u, 0xffffffffu, Ext::kI)     \
  X(kMret,   "mret",   Format::kSystem, 0x30200073u, 0xffffffffu, Ext::kPriv)  \
  X(kSret,   "sret",   Format::kSystem, 0x10200073u, 0xffffffffu, Ext::kPriv)  \
  X(kWfi,    "wfi",    Format::kSystem, 0x10500073u, 0xffffffffu, Ext::kPriv)  \
  X(kSfenceVma, "sfence.vma", Format::kSfence, 0x12000073u, 0xfe007fffu, Ext::kPriv) \
  /* Zicsr */                                                                  \
  X(kCsrrw,  "csrrw",  Format::kCsr,    0x00001073u, 0x0000707fu, Ext::kZicsr) \
  X(kCsrrs,  "csrrs",  Format::kCsr,    0x00002073u, 0x0000707fu, Ext::kZicsr) \
  X(kCsrrc,  "csrrc",  Format::kCsr,    0x00003073u, 0x0000707fu, Ext::kZicsr) \
  X(kCsrrwi, "csrrwi", Format::kCsrImm, 0x00005073u, 0x0000707fu, Ext::kZicsr) \
  X(kCsrrsi, "csrrsi", Format::kCsrImm, 0x00006073u, 0x0000707fu, Ext::kZicsr) \
  X(kCsrrci, "csrrci", Format::kCsrImm, 0x00007073u, 0x0000707fu, Ext::kZicsr) \
  /* M extension */                                                            \
  X(kMul,    "mul",    Format::kR, 0x02000033u, 0xfe00707fu, Ext::kM)          \
  X(kMulh,   "mulh",   Format::kR, 0x02001033u, 0xfe00707fu, Ext::kM)          \
  X(kMulhsu, "mulhsu", Format::kR, 0x02002033u, 0xfe00707fu, Ext::kM)          \
  X(kMulhu,  "mulhu",  Format::kR, 0x02003033u, 0xfe00707fu, Ext::kM)          \
  X(kDiv,    "div",    Format::kR, 0x02004033u, 0xfe00707fu, Ext::kM)          \
  X(kDivu,   "divu",   Format::kR, 0x02005033u, 0xfe00707fu, Ext::kM)          \
  X(kRem,    "rem",    Format::kR, 0x02006033u, 0xfe00707fu, Ext::kM)          \
  X(kRemu,   "remu",   Format::kR, 0x02007033u, 0xfe00707fu, Ext::kM)          \
  X(kMulw,   "mulw",   Format::kR, 0x0200003bu, 0xfe00707fu, Ext::kM)          \
  X(kDivw,   "divw",   Format::kR, 0x0200403bu, 0xfe00707fu, Ext::kM)          \
  X(kDivuw,  "divuw",  Format::kR, 0x0200503bu, 0xfe00707fu, Ext::kM)          \
  X(kRemw,   "remw",   Format::kR, 0x0200603bu, 0xfe00707fu, Ext::kM)          \
  X(kRemuw,  "remuw",  Format::kR, 0x0200703bu, 0xfe00707fu, Ext::kM)          \
  /* A extension, 32-bit */                                                    \
  X(kLrW,      "lr.w",      Format::kLoadRes, 0x1000202fu, 0xf9f0707fu, Ext::kA) \
  X(kScW,      "sc.w",      Format::kAmo, 0x1800202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoSwapW, "amoswap.w", Format::kAmo, 0x0800202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoAddW,  "amoadd.w",  Format::kAmo, 0x0000202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoXorW,  "amoxor.w",  Format::kAmo, 0x2000202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoAndW,  "amoand.w",  Format::kAmo, 0x6000202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoOrW,   "amoor.w",   Format::kAmo, 0x4000202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoMinW,  "amomin.w",  Format::kAmo, 0x8000202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoMaxW,  "amomax.w",  Format::kAmo, 0xa000202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoMinuW, "amominu.w", Format::kAmo, 0xc000202fu, 0xf800707fu, Ext::kA)   \
  X(kAmoMaxuW, "amomaxu.w", Format::kAmo, 0xe000202fu, 0xf800707fu, Ext::kA)   \
  /* A extension, 64-bit */                                                    \
  X(kLrD,      "lr.d",      Format::kLoadRes, 0x1000302fu, 0xf9f0707fu, Ext::kA) \
  X(kScD,      "sc.d",      Format::kAmo, 0x1800302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoSwapD, "amoswap.d", Format::kAmo, 0x0800302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoAddD,  "amoadd.d",  Format::kAmo, 0x0000302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoXorD,  "amoxor.d",  Format::kAmo, 0x2000302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoAndD,  "amoand.d",  Format::kAmo, 0x6000302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoOrD,   "amoor.d",   Format::kAmo, 0x4000302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoMinD,  "amomin.d",  Format::kAmo, 0x8000302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoMaxD,  "amomax.d",  Format::kAmo, 0xa000302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoMinuD, "amominu.d", Format::kAmo, 0xc000302fu, 0xf800707fu, Ext::kA)   \
  X(kAmoMaxuD, "amomaxu.d", Format::kAmo, 0xe000302fu, 0xf800707fu, Ext::kA)

enum class Opcode : std::uint16_t {
#define X(id, mnem, fmt, match, mask, ext) id,
  CHATFUZZ_RISCV_OPCODES(X)
#undef X
  kInvalid,  // sentinel: decode failure
};

/// Number of real (decodable) opcodes.
constexpr std::size_t kNumOpcodes = static_cast<std::size_t>(Opcode::kInvalid);

/// Static description of one instruction encoding.
struct InstrSpec {
  Opcode op;
  std::string_view mnemonic;
  Format format;
  std::uint32_t match;
  std::uint32_t mask;
  Ext ext;
};

/// A decoded instruction. For formats without a given field, the field is 0.
/// `imm` is the sign-extended immediate; for branches/jumps it is the byte
/// offset relative to the instruction's own PC.
struct Decoded {
  Opcode op = Opcode::kInvalid;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int64_t imm = 0;
  std::uint16_t csr = 0;   // Zicsr address field
  bool aq = false;         // AMO acquire bit
  bool rl = false;         // AMO release bit
  std::uint32_t raw = 0;

  bool valid() const { return op != Opcode::kInvalid; }
};

/// Table of all instruction specs, indexed by Opcode value.
const InstrSpec& spec(Opcode op);

/// All specs, for table-driven tests and generators.
const InstrSpec* all_specs();

/// Mnemonic for an opcode ("<invalid>" for the sentinel).
std::string_view mnemonic(Opcode op);

/// ABI register names x0..x31 ("zero", "ra", "sp", ...).
std::string_view reg_name(std::uint8_t reg);

}  // namespace chatfuzz::riscv
