#include "rtlsim/dut.h"

#include "rtlsim/core.h"
#include "rtlsim/ooo_core.h"

namespace chatfuzz::rtl {

using riscv::Exception;
using riscv::Priv;
using sim::CommitRecord;

DutCore::DutCore(const CoreConfig& cfg, cov::CoverageDB& db,
                 sim::Platform plat)
    : cfg_(cfg),
      db_(db),
      plat_(plat),
      mem_(plat.ram_base, plat.ram_size),
      icache_(cfg.icache_sets, cfg.icache_ways, cfg.icache_line),
      dcache_(cfg.dcache_sets, cfg.dcache_ways, cfg.dcache_line),
      predictor_(cfg.btb_entries) {}

void DutCore::reset_common(std::span<const std::uint32_t> program) {
  mem_.clear();
  mem_.load_words(plat_.ram_base, program);
  pc_ = plat_.ram_base;
  priv_ = Priv::kMachine;
  csrs_ = CsrFile{};
  csrs_.mtvec = plat_.ram_base;
  clint_.reset();
  reservation_.reset();
  icache_.flush();
  dcache_.flush();
  // The predictor is microarchitectural state like the caches: each test
  // boots a freshly reset core, exactly as each VCS simulation does in the
  // paper's harness. Keeping BTB history across tests would also make
  // per-test coverage depend on which tests shared a simulator instance.
  predictor_.flush();
  predecode_.flush();
  flush_tlb();
  cycles_ = 0;
  last_ctrl_pack_ = 0;
  trace_.clear();
  // Same scratch policy as IsaSim::reset(): reserve the full-depth commit
  // trace once up front, and not at all while a sink is attached (the
  // streaming path keeps the trace empty).
  if (sink_ == nullptr) trace_.reserve(plat_.max_steps);
  stopped_ = false;
  stop_reason_ = sim::StopReason::kStepLimit;
  steps_ = 0;
}

sim::RunResult DutCore::finish_run() {
  if (bbv_ != nullptr) bbv_->on_stop();
  sim::RunResult r;
  r.trace = trace_;
  r.stop = stop_reason_;
  r.steps = steps_;
  r.final_pc = pc_;
  return r;
}

// ---------------------------------------------------------------------------
// CSR file
// ---------------------------------------------------------------------------

bool DutCore::csr_read(std::uint16_t addr, std::uint64_t& value,
                       Priv view) const {
  namespace c = riscv::csr;
  if (static_cast<int>(view) < static_cast<int>(c::min_priv(addr))) return false;
  switch (addr) {
    case c::kMstatus: value = csrs_.mstatus; return true;
    case c::kMisa: value = sim::kMisaValue; return true;
    case c::kMedeleg: value = csrs_.medeleg; return true;
    case c::kMideleg: value = csrs_.mideleg; return true;
    case c::kMie: value = csrs_.mie; return true;
    case c::kMtvec: value = csrs_.mtvec; return true;
    case c::kMcounteren: value = csrs_.mcounteren; return true;
    case c::kMscratch: value = csrs_.mscratch; return true;
    case c::kMepc: value = csrs_.mepc; return true;
    case c::kMcause: value = csrs_.mcause; return true;
    case c::kMtval: value = csrs_.mtval; return true;
    case c::kMip: value = csrs_.mip; return true;
    case c::kMcycle: case c::kCycle: value = cycles_; return true;
    case c::kTime: value = cycles_ / 100; return true;
    case c::kMinstret: case c::kInstret: value = csrs_.instret; return true;
    case c::kMvendorid: case c::kMarchid: case c::kMimpid: case c::kMhartid:
      value = 0;
      return true;
    case c::kSstatus:
      value = csrs_.mstatus &
              (sim::mstatus::kSie | sim::mstatus::kSpie | sim::mstatus::kSpp |
               sim::mstatus::kSum | sim::mstatus::kMxr);
      return true;
    case c::kSie: value = csrs_.mie & 0x222; return true;
    case c::kSip: value = csrs_.mip & 0x222; return true;
    case c::kStvec: value = csrs_.stvec; return true;
    case c::kScounteren: value = csrs_.scounteren; return true;
    case c::kSscratch: value = csrs_.sscratch; return true;
    case c::kSepc: value = csrs_.sepc; return true;
    case c::kScause: value = csrs_.scause; return true;
    case c::kStval: value = csrs_.stval; return true;
    case c::kSatp: value = csrs_.satp; return true;
    default: return false;
  }
}

bool DutCore::csr_write(std::uint16_t addr, std::uint64_t value) {
  namespace c = riscv::csr;
  namespace ms = sim::mstatus;
  if (static_cast<int>(priv_) < static_cast<int>(c::min_priv(addr))) return false;
  if (c::is_read_only(addr)) return false;
  constexpr std::uint64_t kStatusMask = ms::kSie | ms::kMie | ms::kSpie |
                                        ms::kMpie | ms::kSpp | ms::kMppMask |
                                        ms::kSum | ms::kMxr;
  switch (addr) {
    case c::kMstatus: {
      std::uint64_t v = value & kStatusMask;
      if (((v & ms::kMppMask) >> ms::kMppShift) == 2) v &= ~ms::kMppMask;
      csrs_.mstatus = v;
      return true;
    }
    case c::kMisa: return true;
    case c::kMedeleg: csrs_.medeleg = value & c::kMedelegMask; return true;
    case c::kMideleg: csrs_.mideleg = value & c::kMidelegMask; return true;
    case c::kMie: csrs_.mie = value & 0xaaa; return true;
    case c::kMtvec: csrs_.mtvec = value & ~3ull; return true;
    case c::kMcounteren: csrs_.mcounteren = value & 7; return true;
    case c::kMscratch: csrs_.mscratch = value; return true;
    case c::kMepc: csrs_.mepc = value & ~3ull; return true;
    case c::kMcause: csrs_.mcause = value; return true;
    case c::kMtval: csrs_.mtval = value; return true;
    case c::kMip: csrs_.mip = value & 0x222; return true;
    case c::kMcycle: cycles_ = value; return true;
    case c::kMinstret: csrs_.instret = value; return true;
    case c::kSstatus: {
      constexpr std::uint64_t kSMask =
          ms::kSie | ms::kSpie | ms::kSpp | ms::kSum | ms::kMxr;
      csrs_.mstatus = (csrs_.mstatus & ~kSMask) | (value & kSMask);
      return true;
    }
    case c::kSie:
      csrs_.mie = (csrs_.mie & ~0x222ull) | (value & 0x222);
      return true;
    case c::kSip:
      csrs_.mip = (csrs_.mip & ~0x222ull) | (value & 0x222);
      return true;
    case c::kStvec: csrs_.stvec = value & ~3ull; return true;
    case c::kScounteren: csrs_.scounteren = value & 7; return true;
    case c::kSscratch: csrs_.sscratch = value; return true;
    case c::kSepc: csrs_.sepc = value & ~3ull; return true;
    case c::kScause: csrs_.scause = value; return true;
    case c::kStval: csrs_.stval = value; return true;
    case c::kSatp:
      // WARL MODE (Bare/Sv39 only). An accepted write switches the
      // translation context, so the TLB must drop its cached leaves —
      // unless the stale-TLB bug leaves them in place (sfence.vma still
      // flushes).
      csrs_.satp = c::legalize_satp(csrs_.satp, value);
      if (!cfg_.bugs.stale_tlb) flush_tlb();
      return true;
    default: return false;
  }
}

// ---------------------------------------------------------------------------
// Trap unit
// ---------------------------------------------------------------------------

void DutCore::trap_to_machine(std::uint64_t mcause, std::uint64_t tval) {
  namespace ms = sim::mstatus;
  csrs_.mepc = pc_;
  csrs_.mcause = mcause;
  csrs_.mtval = tval;
  const bool mie = (csrs_.mstatus & ms::kMie) != 0;
  csrs_.mstatus &= ~(ms::kMie | ms::kMpie | ms::kMppMask);
  if (mie) csrs_.mstatus |= ms::kMpie;
  csrs_.mstatus |= static_cast<std::uint64_t>(priv_) << ms::kMppShift;
  priv_ = Priv::kMachine;
  cycles_ += cfg_.mispredict_penalty;  // redirect costs a flush
}

bool DutCore::enter_trap(CommitRecord& rec, Exception cause,
                         std::uint64_t tval) {
  namespace ms = sim::mstatus;
  rec.exception = cause;
  rec.has_rd_write = false;
  rec.has_mem = false;
  // Delegation mux: a trap from below M whose medeleg bit is set vectors to
  // the S-mode trampoline. Bug site wrong_delegation: the mux ignores
  // medeleg and every trap falls through to M.
  const bool delegated =
      priv_ != Priv::kMachine &&
      ((csrs_.medeleg >> static_cast<unsigned>(cause)) & 1) != 0 &&
      !cfg_.bugs.wrong_delegation;
  if (delegated) {
    csrs_.sepc = pc_;
    csrs_.scause = static_cast<std::uint64_t>(cause);
    csrs_.stval = tval;
    const bool sie = (csrs_.mstatus & ms::kSie) != 0;
    csrs_.mstatus &= ~(ms::kSie | ms::kSpie | ms::kSpp);
    if (sie) csrs_.mstatus |= ms::kSpie;
    if (priv_ == Priv::kSupervisor) csrs_.mstatus |= ms::kSpp;
    priv_ = Priv::kSupervisor;
    pc_ = csrs_.sepc + 4;  // S-mode magic trampoline (platform.h)
    cycles_ += cfg_.mispredict_penalty;
    return true;
  }
  trap_to_machine(static_cast<std::uint64_t>(cause), tval);
  pc_ = csrs_.mepc + 4;  // magic trampoline (platform.h)
  return false;
}

void DutCore::take_interrupt() {
  const std::uint64_t ready = csrs_.mie & csrs_.mip & sim::mip::kMachineBits;
  if (ready == 0) return;
  const bool enabled =
      priv_ != Priv::kMachine || (csrs_.mstatus & sim::mstatus::kMie) != 0;
  if (!enabled) return;
  // Software interrupts outrank timer interrupts (privileged spec).
  const std::uint64_t cause = (ready & sim::mip::kMsip) != 0
                                  ? sim::mip::kCauseMsi
                                  : sim::mip::kCauseMti;
  trap_to_machine(sim::mip::kInterruptFlag | cause, 0);
  // Magic trampoline: acknowledge at the device, resume at the interrupted
  // instruction (pc_ unchanged). See platform.h.
  clint_.clear_source(cause);
  sync_mip();
}

// ---------------------------------------------------------------------------
// MMU
// ---------------------------------------------------------------------------

Exception DutCore::leaf_permissions(std::uint64_t pte, MemAccess kind) const {
  namespace pv = riscv::sv39;
  namespace ms = sim::mstatus;
  const Exception fault = kind == MemAccess::kFetch  ? Exception::kInstrPageFault
                          : kind == MemAccess::kLoad ? Exception::kLoadPageFault
                                                     : Exception::kStorePageFault;
  const bool u_page = (pte & pv::kPteU) != 0;
  switch (kind) {
    case MemAccess::kFetch:
      if ((pte & pv::kPteX) == 0) return fault;
      // U needs the U bit; S fetching from a U page always faults (SUM
      // gates data accesses only).
      if ((priv_ == Priv::kUser) != u_page) return fault;
      break;
    case MemAccess::kLoad: {
      if (priv_ == Priv::kUser && !u_page) return fault;
      if (priv_ == Priv::kSupervisor && u_page &&
          (csrs_.mstatus & ms::kSum) == 0) {
        return fault;
      }
      const bool mxr = (csrs_.mstatus & ms::kMxr) != 0;
      if ((pte & pv::kPteR) == 0 && !(mxr && (pte & pv::kPteX) != 0)) {
        return fault;
      }
      break;
    }
    case MemAccess::kStore:
      if (priv_ == Priv::kUser && !u_page) return fault;
      if (priv_ == Priv::kSupervisor && u_page &&
          (csrs_.mstatus & ms::kSum) == 0) {
        return fault;
      }
      // Bug site skip_perm_check: the store permission comparator (W) and
      // the dirty check below are skipped — stores to read-only pages land.
      if (!cfg_.bugs.skip_perm_check && (pte & pv::kPteW) == 0) return fault;
      break;
  }
  // Svade: the walker never updates A/D; accesses needing an update fault.
  if ((pte & pv::kPteA) == 0) return fault;
  if (kind == MemAccess::kStore && !cfg_.bugs.skip_perm_check &&
      (pte & pv::kPteD) == 0) {
    return fault;
  }
  return Exception::kNone;
}

Exception DutCore::translate(std::uint64_t vaddr, MemAccess kind,
                             std::uint64_t& paddr, TlbWalk* walk) {
  namespace c = riscv::csr;
  namespace pv = riscv::sv39;
  TlbWalk unused;
  TlbWalk& w = walk != nullptr ? *walk : unused;
  const Exception fault = kind == MemAccess::kFetch  ? Exception::kInstrPageFault
                          : kind == MemAccess::kLoad ? Exception::kLoadPageFault
                                                     : Exception::kStorePageFault;
  if (!pv::canonical(vaddr)) return fault;
  w.looked_up = true;
  const std::uint64_t vpn = vaddr >> pv::kPageShift;
  TlbEntry& slot = tlb_[vpn % tlb_.size()];
  w.hit = slot.valid && slot.vpn == vpn;
  if (w.hit) {
    ++obs_.tlb_hits;
  } else {
    ++obs_.tlb_misses;
    // Page-table walk, root first. The PTW is a memory client of its own in
    // real RTL; here it reads RAM directly (uncached) one PTE per level.
    std::uint64_t table = (csrs_.satp & c::kSatpPpnMask) << pv::kPageShift;
    int level = static_cast<int>(pv::kLevels) - 1;
    std::uint64_t pte = 0;
    while (true) {
      if (level < 0) return fault;
      const std::uint64_t pte_addr =
          table + pv::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8;
      if (!mem_.in_ram(pte_addr, 8)) return fault;
      pte = mem_.read(pte_addr, 8);
      const bool valid = (pte & pv::kPteV) != 0 &&
                         !((pte & pv::kPteW) != 0 && (pte & pv::kPteR) == 0);
      if (!valid) return fault;
      if ((pte & (pv::kPteR | pv::kPteX)) != 0) break;  // leaf PTE
      table = pv::pte_ppn(pte) << pv::kPageShift;
      --level;
    }
    // Superpage leaves must be PPN-aligned to their span.
    if (level > 0 &&
        (pv::pte_ppn(pte) &
         ((1ull << (9 * static_cast<unsigned>(level))) - 1)) != 0) {
      return fault;
    }
    slot.valid = true;
    slot.vpn = vpn;
    slot.pte = pte;
    slot.level = static_cast<std::uint8_t>(level);
    cycles_ += cfg_.miss_penalty;  // walk stalls like a cache miss
  }
  w.level = slot.level;
  // The TLB caches the PTE, not the verdict: permissions re-check against
  // the current privilege/mstatus on every access.
  if (const Exception f = leaf_permissions(slot.pte, kind);
      f != Exception::kNone) {
    return f;
  }
  const std::uint64_t span = (1ull << (9 * slot.level)) - 1;
  const std::uint64_t ppn = (pv::pte_ppn(slot.pte) & ~span) | (vpn & span);
  paddr = (ppn << pv::kPageShift) | (vaddr & ((1ull << pv::kPageShift) - 1));
  return Exception::kNone;
}

// ---------------------------------------------------------------------------

std::unique_ptr<DutCore> make_dut(const CoreConfig& cfg, cov::CoverageDB& db,
                                  sim::Platform plat) {
  if (cfg.out_of_order) return std::make_unique<OooCore>(cfg, db, plat);
  return std::make_unique<RtlCore>(cfg, db, plat);
}

bool dut_preset(const std::string& name, CoreConfig& out) {
  if (name == "inorder" || name == "rocket") {
    out = CoreConfig::rocket();
    return true;
  }
  if (name == "boom") {
    out = CoreConfig::boom();
    return true;
  }
  if (name == "ooo") {
    out = CoreConfig::ooo();
    return true;
  }
  return false;
}

}  // namespace chatfuzz::rtl
