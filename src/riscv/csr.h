// CSR address map and fields shared by the golden model and the pipeline
// model. Only the CSRs RocketCore exposes to the fuzzed surface are modeled;
// unknown CSR addresses raise illegal-instruction, as in hardware.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace chatfuzz::riscv {

/// Privilege levels, encoded as in the RISC-V privileged spec.
enum class Priv : std::uint8_t { kUser = 0, kSupervisor = 1, kMachine = 3 };

namespace csr {
// Machine-level
inline constexpr std::uint16_t kMstatus = 0x300;
inline constexpr std::uint16_t kMisa = 0x301;
inline constexpr std::uint16_t kMedeleg = 0x302;
inline constexpr std::uint16_t kMideleg = 0x303;
inline constexpr std::uint16_t kMie = 0x304;
inline constexpr std::uint16_t kMtvec = 0x305;
inline constexpr std::uint16_t kMcounteren = 0x306;
inline constexpr std::uint16_t kMscratch = 0x340;
inline constexpr std::uint16_t kMepc = 0x341;
inline constexpr std::uint16_t kMcause = 0x342;
inline constexpr std::uint16_t kMtval = 0x343;
inline constexpr std::uint16_t kMip = 0x344;
inline constexpr std::uint16_t kMcycle = 0xb00;
inline constexpr std::uint16_t kMinstret = 0xb02;
inline constexpr std::uint16_t kMvendorid = 0xf11;
inline constexpr std::uint16_t kMarchid = 0xf12;
inline constexpr std::uint16_t kMimpid = 0xf13;
inline constexpr std::uint16_t kMhartid = 0xf14;
// Supervisor-level
inline constexpr std::uint16_t kSstatus = 0x100;
inline constexpr std::uint16_t kSie = 0x104;
inline constexpr std::uint16_t kStvec = 0x105;
inline constexpr std::uint16_t kScounteren = 0x106;
inline constexpr std::uint16_t kSscratch = 0x140;
inline constexpr std::uint16_t kSepc = 0x141;
inline constexpr std::uint16_t kScause = 0x142;
inline constexpr std::uint16_t kStval = 0x143;
inline constexpr std::uint16_t kSip = 0x144;
inline constexpr std::uint16_t kSatp = 0x180;
// User-level counters
inline constexpr std::uint16_t kCycle = 0xc00;
inline constexpr std::uint16_t kTime = 0xc01;
inline constexpr std::uint16_t kInstret = 0xc02;

/// Lowest privilege allowed to access a CSR (bits 9:8 of the address).
inline Priv min_priv(std::uint16_t addr) {
  switch ((addr >> 8) & 3) {
    case 0: return Priv::kUser;
    case 1: return Priv::kSupervisor;
    default: return Priv::kMachine;
  }
}

/// Read-only CSR addresses have top two bits == 0b11.
inline bool is_read_only(std::uint16_t addr) { return (addr >> 10) == 3; }

/// Architectural name for a modeled CSR address, nullptr when unknown (the
/// disassembler falls back to hex for those).
const char* name(std::uint16_t addr);

/// Address for an architectural CSR name, nullopt when not modeled.
std::optional<std::uint16_t> from_name(std::string_view name);

// ---- WARL legalization ----------------------------------------------------
// The two simulators duplicate trap and translation *behavior* on purpose
// (differential testing needs independent implementations); the legal-value
// masks below are architectural constants and are shared like the decoder.

/// Delegatable synchronous causes: 0-9 plus the Sv39 page faults (12/13/15).
/// Bit 11 (ecall-from-M can never be delegated) and the reserved bits 10/14
/// read as zero.
inline constexpr std::uint64_t kMedelegMask = 0xb3ff;
/// Only the supervisor interrupt bits (SSI/STI/SEI) are delegatable.
inline constexpr std::uint64_t kMidelegMask = 0x222;

// satp fields (Sv39).
inline constexpr unsigned kSatpModeShift = 60;
inline constexpr std::uint64_t kSatpModeBare = 0;
inline constexpr std::uint64_t kSatpModeSv39 = 8;
inline constexpr std::uint64_t kSatpPpnMask = (1ull << 44) - 1;

/// WARL satp: a write naming an unsupported MODE leaves the whole register
/// unchanged (Rocket behavior); Bare/Sv39 writes keep ASID and PPN as-is.
inline std::uint64_t legalize_satp(std::uint64_t old_value,
                                   std::uint64_t value) {
  const std::uint64_t mode = value >> kSatpModeShift;
  if (mode != kSatpModeBare && mode != kSatpModeSv39) return old_value;
  return value;
}
}  // namespace csr

/// Sv39 page-table entry fields and index extraction, shared architectural
/// constants for the two independent page-table walkers.
namespace sv39 {
inline constexpr std::uint64_t kPteV = 1ull << 0;
inline constexpr std::uint64_t kPteR = 1ull << 1;
inline constexpr std::uint64_t kPteW = 1ull << 2;
inline constexpr std::uint64_t kPteX = 1ull << 3;
inline constexpr std::uint64_t kPteU = 1ull << 4;
inline constexpr std::uint64_t kPteG = 1ull << 5;
inline constexpr std::uint64_t kPteA = 1ull << 6;
inline constexpr std::uint64_t kPteD = 1ull << 7;
inline constexpr unsigned kPageShift = 12;
inline constexpr unsigned kLevels = 3;

/// Nine-bit VPN slice for walk level 0..2 (2 is the root index).
inline std::uint64_t vpn_slice(std::uint64_t vaddr, unsigned level) {
  return (vaddr >> (kPageShift + 9 * level)) & 0x1ff;
}

/// PPN field of a PTE (bits 53:10).
inline std::uint64_t pte_ppn(std::uint64_t pte) {
  return (pte >> 10) & csr::kSatpPpnMask;
}

/// A virtual address is only valid when bits 63:39 equal bit 38.
inline bool canonical(std::uint64_t vaddr) {
  const std::int64_t s = static_cast<std::int64_t>(vaddr << 25) >> 25;
  return static_cast<std::uint64_t>(s) == vaddr;
}
}  // namespace sv39

/// Synchronous exception causes (mcause values), per the privileged spec.
enum class Exception : std::uint8_t {
  kInstrAddrMisaligned = 0,
  kInstrAccessFault = 1,
  kIllegalInstruction = 2,
  kBreakpoint = 3,
  kLoadAddrMisaligned = 4,
  kLoadAccessFault = 5,
  kStoreAddrMisaligned = 6,
  kStoreAccessFault = 7,
  kEcallFromU = 8,
  kEcallFromS = 9,
  kEcallFromM = 11,
  kInstrPageFault = 12,
  kLoadPageFault = 13,
  kStorePageFault = 15,
  kNone = 0xff,
};

/// Human-readable cause name for reports and mismatch signatures.
const char* exception_name(Exception e);

}  // namespace chatfuzz::riscv
