// The DUT seam of the campaign engine, and the privileged unit behind it.
// Every simulated core backend — the in-order RtlCore and the out-of-order
// OooCore — derives from DutCore, and the multi-DUT campaign mode drives one
// golden ISS against any list of DutCore configs per generated test.
//
// DutCore owns what both backends model identically: memory, caches, the
// branch predictor, the predecode cache, the CLINT, the CSR file with its
// WARL rules, trap and interrupt entry, the Sv39 TLB and page-table walker,
// and the commit path (control-register coverage, sink or trace). What the
// differential harness needs independent is a DUT versus the golden
// model (src/isasim is a separate implementation of the same rules), not one
// DUT versus another, so each privileged rule is written once, here. The
// shared code records no coverage: RtlCore turns what these calls return
// into its trap.*, tlb.*, ptw.* and irq.* condition points, and the three
// privileged bug injections (wrong_delegation, skip_perm_check, stale_tlb)
// mean the same on either backend. Each backend keeps its own pipeline and
// execute switch.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "coverage/cover.h"
#include "coverage/multi.h"
#include "isasim/memory.h"
#include "isasim/platform.h"
#include "isasim/trace.h"
#include "obs/sim_counters.h"
#include "riscv/csr.h"
#include "riscv/instr.h"
#include "riscv/predecode.h"
#include "rtlsim/caches.h"
#include "rtlsim/config.h"

namespace chatfuzz::rtl {

class DutCore {
 public:
  virtual ~DutCore() = default;

  /// Reset architectural + microarchitectural state and load the program.
  /// Coverage in the shared DB is NOT reset (campaign-cumulative).
  virtual void reset(std::span<const std::uint32_t> program) = 0;
  virtual sim::RunResult run() = 0;
  /// Committed architectural register value.
  virtual std::uint64_t reg(unsigned i) const = 0;
  /// Attach the multi-metric suite (nullptr detaches); the suite must
  /// outlive the core. Backends without suite instrumentation accept and
  /// ignore the pointer.
  virtual void attach_metrics(cov::MetricSuite* metrics) = 0;
  /// Speed knob; backends without a fused path treat it as a no-op.
  virtual void set_superblocks(bool on) = 0;

  bool stopped() const { return stopped_; }
  std::uint64_t pc() const { return pc_; }
  riscv::Priv priv() const { return priv_; }
  std::uint64_t cycles() const { return cycles_; }
  /// Architectural CSR value as an M-mode read would see it; 0 for
  /// unimplemented addresses.
  std::uint64_t csr_value(std::uint16_t addr) const {
    std::uint64_t v = 0;
    csr_read(addr, v, riscv::Priv::kMachine);
    return v;
  }
  const sim::Trace& trace() const { return trace_; }
  const sim::Memory& memory() const { return mem_; }
  cov::CtrlRegCoverage& ctrl_cov() { return ctrl_cov_; }
  const CoreConfig& config() const { return cfg_; }

  /// Change the initial-register-file seed used by subsequent reset() calls
  /// (campaigns that give every test a distinct deterministic register file).
  void set_reg_seed(std::uint64_t seed) { plat_.reg_seed = seed; }
  /// Stream commits to `sink` instead of the internal trace (nullptr
  /// restores trace collection). While a sink is attached, trace() stays
  /// empty and run() returns an empty RunResult::trace — the streaming path
  /// never materializes one.
  void set_sink(sim::CommitSink* sink) { sink_ = sink; }

  /// Telemetry counters (predecode/TLB/superblock hit rates) accumulated
  /// since the last take; taking zeroes them. Observation-only.
  obs::SimCounters take_obs_counters() {
    obs::SimCounters c = obs_;
    c.predecode_hits = predecode_.take_hits();
    c.predecode_misses = predecode_.take_misses();
    obs_ = {};
    return c;
  }

 protected:
  /// The DB must outlive the core; backends register their points into it.
  DutCore(const CoreConfig& cfg, cov::CoverageDB& db, sim::Platform plat);

  /// Record an evaluation of condition `id` with value `v`; returns `v` so
  /// conditions stay readable: if (cc(p_hit_, acc.hit)) {...}
  bool cc(cov::PointId id, bool v) {
    db_.hit(id, v);
    return v;
  }

  /// The shared half of reset(): load the program, reset the architectural
  /// state (pc at the RAM base, M-mode, CSR reset values), flush caches,
  /// predictor, predecode cache and TLB, and clear the run state.
  void reset_common(std::span<const std::uint32_t> program);
  /// End of run(): report the run.
  sim::RunResult finish_run();
  void stop(sim::StopReason why) {
    stopped_ = true;
    stop_reason_ = why;
  }

  /// Retire `rec`, whose instruction decoded as `d` and was fetched with
  /// `icache_hit`: fold the DifuzzRTL control-register state (decoded
  /// opcode + commit-stage flags, XOR-chained with the previous state for
  /// the sequence-sensitive half) and hand the record to the sink or the
  /// trace. Runs after pc_ has moved on.
  void commit(const sim::CommitRecord& rec, const riscv::Decoded& d,
              bool icache_hit) {
    std::uint64_t pack = d.valid() ? static_cast<std::uint64_t>(d.op) : 0x7f;
    pack |= static_cast<std::uint64_t>(icache_hit) << 7;
    pack |= static_cast<std::uint64_t>(rec.has_mem) << 8;
    pack |= static_cast<std::uint64_t>(rec.exception != riscv::Exception::kNone)
            << 9;
    pack |= static_cast<std::uint64_t>(static_cast<unsigned>(priv_)) << 10;
    pack |= static_cast<std::uint64_t>(rec.has_rd_write) << 12;
    ctrl_cov_.observe(pack);
    ctrl_cov_.observe(pack ^ (last_ctrl_pack_ << 13));
    last_ctrl_pack_ = pack;
    if (sink_ != nullptr) {
      sink_->on_commit(rec);
    } else {
      trace_.push_back(rec);
    }
  }

  // ---- CSR file --------------------------------------------------------
  struct CsrFile {
    std::uint64_t mstatus = 0;
    std::uint64_t medeleg = 0, mideleg = 0;
    std::uint64_t mie = 0, mip = 0;
    std::uint64_t mtvec = 0, mscratch = 0, mepc = 0, mcause = 0, mtval = 0;
    std::uint64_t mcounteren = ~0ull, scounteren = ~0ull;
    std::uint64_t stvec = 0, sscratch = 0, sepc = 0, scause = 0, stval = 0;
    std::uint64_t satp = 0;
    std::uint64_t instret = 0;
  };
  /// Read `addr` with the access rights of privilege `view`; false when the
  /// CSR is unimplemented or above `view`.
  bool csr_read(std::uint16_t addr, std::uint64_t& value,
                riscv::Priv view) const;
  /// Write `addr` at the current privilege, legalizing WARL fields; false
  /// when the write must raise illegal-instruction. Bug site stale_tlb: a
  /// satp write leaves the TLB in place.
  bool csr_write(std::uint16_t addr, std::uint64_t value);

  // ---- trap unit -------------------------------------------------------
  /// Take synchronous exception `cause` at pc_: drop the record's writes,
  /// push the S or M status stack and resume at the magic trampoline
  /// (platform.h). Returns true when medeleg delegated the trap to S. Bug
  /// site wrong_delegation: the delegation mux ignores medeleg.
  bool enter_trap(sim::CommitRecord& rec, riscv::Exception cause,
                  std::uint64_t tval);
  /// Advance the CLINT one tick and mirror its lines into mip.
  void tick_clint() {
    clint_.tick();
    sync_mip();
  }
  /// Enter the highest-priority pending M-mode interrupt if it is enabled.
  void take_interrupt();
  /// Mirror the CLINT's timer and software lines into mip's machine bits.
  void sync_mip() {
    csrs_.mip = (csrs_.mip & ~sim::mip::kMachineBits) | clint_.pending_mip();
  }

  // ---- MMU (Sv39 TLB + page-table walker) -------------------------------
  enum class MemAccess { kFetch, kLoad, kStore };
  struct TlbEntry {
    bool valid = false;
    std::uint64_t vpn = 0;   // full 27-bit virtual page number
    std::uint64_t pte = 0;   // cached leaf PTE
    std::uint8_t level = 0;  // leaf level (0 = 4K page)
  };
  /// What one translate() call did, for a core that instruments its MMU.
  struct TlbWalk {
    bool looked_up = false;  // the address was canonical: TLB consulted
    bool hit = false;        // the TLB held the page
    int level = -1;          // leaf level reached; -1 when the walk faulted
  };
  /// Sv39 in effect: satp.MODE==8 and the hart is below M. Inline: every
  /// fetch, load and store asks.
  bool translation_active() const {
    namespace c = riscv::csr;
    return priv_ != riscv::Priv::kMachine &&
           (csrs_.satp >> c::kSatpModeShift) == c::kSatpModeSv39;
  }
  /// TLB lookup + walk + permission check; fills `paddr` on success and,
  /// when given, `walk`. The permission check runs on every access, hit or
  /// refill, against the current privilege and mstatus.
  riscv::Exception translate(std::uint64_t vaddr, MemAccess kind,
                             std::uint64_t& paddr, TlbWalk* walk = nullptr);
  /// Check a leaf PTE against an access of `kind` at the current privilege
  /// and mstatus. Bug site skip_perm_check: the store W and D checks are
  /// skipped.
  riscv::Exception leaf_permissions(std::uint64_t pte, MemAccess kind) const;
  void flush_tlb() { tlb_.fill(TlbEntry{}); }

  // ---- opcode classes both decode stages use ----------------------------
  static std::uint64_t sext32(std::uint64_t v) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
  }
  static unsigned mem_size_of(riscv::Opcode op) {
    using riscv::Opcode;
    switch (op) {
      case Opcode::kLb: case Opcode::kLbu: case Opcode::kSb: return 1;
      case Opcode::kLh: case Opcode::kLhu: case Opcode::kSh: return 2;
      case Opcode::kLw: case Opcode::kLwu: case Opcode::kSw: return 4;
      case Opcode::kLrW: case Opcode::kScW: return 4;
      default: return 8;
    }
  }
  static bool is_load_op(riscv::Opcode op) {
    using riscv::Opcode;
    switch (op) {
      case Opcode::kLb: case Opcode::kLh: case Opcode::kLw: case Opcode::kLd:
      case Opcode::kLbu: case Opcode::kLhu: case Opcode::kLwu:
        return true;
      default:
        return false;
    }
  }
  static bool is_store_op(riscv::Opcode op) {
    using riscv::Opcode;
    switch (op) {
      case Opcode::kSb: case Opcode::kSh: case Opcode::kSw: case Opcode::kSd:
        return true;
      default:
        return false;
    }
  }
  static bool is_branch_op(riscv::Opcode op) {
    using riscv::Opcode;
    switch (op) {
      case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
      case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu:
        return true;
      default:
        return false;
    }
  }
  static bool is_amo_op(riscv::Opcode op) {
    const auto& s = riscv::spec(op);
    return s.ext == riscv::Ext::kA && s.format == riscv::Format::kAmo &&
           op != riscv::Opcode::kScW && op != riscv::Opcode::kScD;
  }
  static bool is_alu_imm_op(riscv::Opcode op) {
    using riscv::Opcode;
    switch (op) {
      case Opcode::kAddi: case Opcode::kSlti: case Opcode::kSltiu:
      case Opcode::kXori: case Opcode::kOri: case Opcode::kAndi:
      case Opcode::kSlli: case Opcode::kSrli: case Opcode::kSrai:
      case Opcode::kAddiw: case Opcode::kSlliw: case Opcode::kSrliw:
      case Opcode::kSraiw:
        return true;
      default:
        return false;
    }
  }
  static bool is_alu_reg_op(riscv::Opcode op) {
    const auto& s = riscv::spec(op);
    return s.format == riscv::Format::kR && s.ext == riscv::Ext::kI;
  }

  CoreConfig cfg_;
  cov::CoverageDB& db_;
  sim::Platform plat_;
  sim::Memory mem_;
  sim::ClintState clint_;
  ICache icache_;
  DCache dcache_;
  Predictor predictor_;
  // Decode-stage memoization (see riscv/predecode.h). Fetch still goes
  // through the modeled I$ — the cache only skips re-decoding the fetched
  // word, tag-checked against it, so bug injections (stale I$) and every
  // coverage point behave exactly as without it.
  riscv::PredecodeCache predecode_;
  cov::CtrlRegCoverage ctrl_cov_;
  // Telemetry tallies (see take_obs_counters); never read architecturally.
  obs::SimCounters obs_;

  // Architectural state. pc_ is the committed pc: the next instruction to
  // retire.
  std::uint64_t pc_ = 0;
  riscv::Priv priv_ = riscv::Priv::kMachine;
  std::optional<std::uint64_t> reservation_;  // LR reservation (physical)
  CsrFile csrs_;
  std::array<TlbEntry, 16> tlb_{};  // direct-mapped, indexed by vpn % 16
  std::uint64_t cycles_ = 0;
  std::uint64_t last_ctrl_pack_ = 0;

  // Run state.
  sim::Trace trace_;
  sim::CommitSink* sink_ = nullptr;
  bool stopped_ = true;
  sim::StopReason stop_reason_ = sim::StopReason::kStepLimit;
  std::uint64_t steps_ = 0;

 private:
  /// Save pc_ and the privilege into the M-mode trap CSRs and status stack
  /// and enter M; the caller picks the resume pc.
  void trap_to_machine(std::uint64_t mcause, std::uint64_t tval);
};

/// Construct the backend selected by `cfg.out_of_order`. Registers the
/// backend's condition points into `db` — callers that fold coverage across
/// processes must build their registrar DBs with the same config list in
/// the same order (see campaign.cpp).
std::unique_ptr<DutCore> make_dut(const CoreConfig& cfg, cov::CoverageDB& db,
                                  sim::Platform plat = {});

/// Parse a `--dut` list entry ("inorder"/"rocket", "boom", "ooo") into a
/// CoreConfig preset; returns false on an unknown name.
bool dut_preset(const std::string& name, CoreConfig& out);

}  // namespace chatfuzz::rtl
