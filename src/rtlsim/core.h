// RTL-level DUT model ("RocketCore"/"BOOM" role): an instruction-driven
// microarchitectural model of an in-order RV64IMA pipeline with I$/D$,
// branch prediction, an iterative divider and a commit tracer, on top of the
// CSR file, trap unit and Sv39 MMU it shares with the out-of-order backend
// (DutCore, dut.h). Every boolean control condition in the model is a
// registered condition-coverage point, mirroring what `vcs -cm cond`
// instruments in the real RTL; the shared privileged unit records none
// itself, so this core turns what those calls return into its trap.*,
// deleg*, tlb.*, ptw.* and irq.* points.
//
// The model deliberately re-implements execution semantics (it shares only
// the pure ALU arithmetic table with the golden model); together with the
// switchable bug injections in config.h this gives the Mismatch Detector a
// genuinely independent second implementation to diff against the golden
// model — the same structure the paper's VCS-vs-Spike setup has.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "coverage/cover.h"
#include "coverage/multi.h"
#include "riscv/instr.h"
#include "riscv/superblock.h"
#include "rtlsim/config.h"
#include "rtlsim/dut.h"

namespace chatfuzz::rtl {

class RtlCore final : public DutCore {
 public:
  /// Points are registered into `db` at construction; the DB must outlive
  /// the core. One DB accumulates coverage across a whole campaign.
  RtlCore(const CoreConfig& cfg, cov::CoverageDB& db, sim::Platform plat = {});

  /// Reset architectural + microarchitectural state and load the program.
  /// Coverage in the shared DB is NOT reset (campaign-cumulative).
  void reset(std::span<const std::uint32_t> program) override;

  sim::RunResult run() override;
  /// One instruction through the pipeline. A manual step() loop closes the
  /// BBV block itself (run() calls on_stop()).
  std::optional<sim::CommitRecord> step();

  std::uint64_t reg(unsigned i) const override { return regs_[i & 31]; }

  /// Optionally attach the multi-metric suite (toggle/FSM/statement
  /// coverage); the suite must outlive the core. Pass nullptr to detach.
  void attach_metrics(cov::MetricSuite* metrics) override {
    metrics_ = metrics;
  }

  /// Enable/disable the fused-fetch superblock fast path in run(). Purely a
  /// speed knob: commits, cycles, coverage bins and ctrl-reg observations
  /// are bit-identical either way (the determinism suites pin this). The
  /// fast path also self-disables for configs it cannot fuse (superscalar,
  /// per-instruction select chains, CLINT, attached metrics).
  void set_superblocks(bool on) override { sb_enabled_ = on; }
  bool superblocks() const { return sb_enabled_; }

 private:
  void register_points();

  /// Flush the deferred select-chain histograms into the coverage DB (see
  /// CoreConfig::deferred_select_chains). Called whenever the run stops and
  /// at reset, so any state a test observes after a run is bit-identical to
  /// per-instruction evaluation.
  void fold_deferred_chains();

  // -- the shared privileged unit, with this core's points ------------------
  /// enter_trap() plus the trap.cause*, trap.from_*, trap.medeleg_nonzero,
  /// trap.delegated and boom.pipeline_flush points.
  void raise(sim::CommitRecord& rec, riscv::Exception cause, std::uint64_t tval);
  /// translate() plus the tlb.* and ptw.* points.
  riscv::Exception translate_cc(std::uint64_t vaddr, MemAccess kind,
                                std::uint64_t& paddr);
  /// tick_clint() and take_interrupt(), sampling the irq.pending* lines in
  /// between.
  void service_interrupts();

  void write_rd(sim::CommitRecord& rec, std::uint8_t rd, std::uint64_t value);
  void execute(const riscv::Decoded& d, sim::CommitRecord& rec);
  void evaluate_background_units(const riscv::Decoded& d);

  // ---- superblock fused-fetch fast path (see riscv/superblock.h) -----------
  // A cached span stores, per instruction, the decode plus every
  // decode-derived coverage outcome precomputed as bit masks; executing the
  // span replays execute()/cross-unit/ctrl-reg work per slot but batches the
  // per-instruction condition points into hit_n() folds at span exit —
  // counts are order-insensitive, so the DB bytes come out identical.
  struct FusedSlot {
    riscv::Decoded d;
    std::uint32_t class_bits = 0;  // outcome of each batched point, by index
    std::uint16_t op_index = 0;    // decoded opcode index (select chains)
    std::uint16_t ev_bits = 0;     // StepEvents class-flag template
  };
  // Batched per-instruction points: the 19 decode-stage points in step()
  // evaluation order, then fetch.cross_line — everything whose outcome is a
  // pure function of (decode, fetch address).
  static constexpr std::size_t kNumFusedPoints = 20;
  using FusedIndex =
      riscv::SuperblockIndex<FusedSlot,
                             std::array<std::uint32_t, kNumFusedPoints>>;
  /// Execute cached spans starting at pc_; returns false when the slow
  /// step() must handle this pc (no span, negative span, budget exhausted).
  bool run_superblock();
  const FusedIndex::Span* build_superblock();

  // Superblock span cache: derived state (never checkpointed), guarded by
  // the I$ per-line generation counters — unchanged generations mean every
  // fetch in the span would still hit and serve identical bytes, so the
  // stale-I$ bug injection keeps its exact semantics.
  bool sb_enabled_ = true;
  FusedIndex sb_;

  // Span-build churn guard (same policy as IsaSim::sb_builds_): once builds
  // outpace ~1 per 16 committed instructions, stop building for the rest of
  // the test and serve only already-cached spans. Purely a speed valve.
  std::uint64_t sb_builds_ = 0;
  std::array<cov::PointId, kNumFusedPoints> p_fused_batch_{};

  cov::MetricSuite* metrics_ = nullptr;

  // Architectural state (the rest lives in DutCore).
  std::array<std::uint64_t, 32> regs_{};

  // Pipeline state.
  std::uint8_t last_rd_ = 0;        // writeback reg of previous instruction
  bool last_was_load_ = false;      // for load-use stall condition
  bool last_was_short_alu_ = false; // for BOOM dual-issue condition

  // ---- condition points -----------------------------------------------------
  // Fetch / front end.
  cov::PointId p_ic_hit_, p_ic_evict_, p_btb_hit_, p_pred_taken_,
      p_mispredict_, p_fencei_flush_, p_fetch_cross_;
  std::vector<cov::PointId> p_ic_set_evict_;  // per-set eviction
  // Decode: instruction-class signals + per-opcode select chain.
  cov::PointId p_dec_valid_, p_dec_load_, p_dec_store_, p_dec_branch_,
      p_dec_jal_, p_dec_jalr_, p_dec_aluimm_, p_dec_alureg_, p_dec_wform_,
      p_dec_muldiv_, p_dec_div_, p_dec_amo_, p_dec_lr_, p_dec_sc_, p_dec_csr_,
      p_dec_fence_, p_dec_system_, p_dec_rd_x0_, p_dec_rs1_x0_;
  std::vector<cov::PointId> p_dec_op_;  // one per opcode
  // Execute / hazards.
  cov::PointId p_ex_bypass_rs1_, p_ex_bypass_rs2_, p_ex_load_use_,
      p_ex_res_zero_, p_ex_res_neg_, p_ex_same_src_, p_ex_shamt_zero_,
      p_ex_br_taken_, p_ex_br_backward_, p_ex_target_misaligned_;
  // Mul/div unit.
  cov::PointId p_md_busy_, p_md_div0_, p_md_overflow_, p_md_sign_mix_,
      p_md_word_, p_md_high_;
  // Memory unit / D$.
  cov::PointId p_dc_hit_, p_dc_evict_valid_, p_dc_evict_dirty_,
      p_mem_misaligned_, p_mem_fault_, p_mem_store_, p_mem_size8_,
      p_mem_sc_ok_, p_mem_resv_valid_, p_mem_amo_min_, p_mem_amo_logic_;
  std::vector<cov::PointId> p_dc_set_evict_;  // per-set eviction
  // CSR / trap unit.
  cov::PointId p_csr_illegal_addr_, p_csr_priv_fail_, p_csr_ro_write_,
      p_csr_machine_, p_csr_super_, p_csr_counter_, p_csr_satp_,
      p_csr_write_side_;
  std::vector<cov::PointId> p_trap_cause_;  // per exception cause
  cov::PointId p_trap_from_u_, p_trap_from_s_, p_mret_, p_sret_,
      p_sret_to_u_, p_mret_to_u_, p_mret_to_s_, p_wfi_, p_deleg_,
      p_deleg_taken_, p_sfence_;
  // Background units evaluated every instruction (interrupt/debug) and per
  // access (PMP/ECC/PTW) — the realistic "hard tail" of the RTL.
  std::vector<cov::PointId> p_irq_pending_;  // 6 causes; true unreachable
  cov::PointId p_debug_halt_, p_debug_step_, p_ecc_ic_, p_ecc_dc_,
      p_pmp_hit_, p_pmp_fault_, p_ptw_active_, p_ptw_level_, p_ptw_fault_,
      p_ctr_overflow_;
  // BOOM-only points.
  cov::PointId p_b_dual_issue_, p_b_rename_alloc_, p_b_rob_full_,
      p_b_flush_, p_b_wakeup_;
  std::vector<cov::PointId> p_b_rename_bank_;  // physical-register banks
  std::vector<cov::PointId> p_b_rob_window_;   // occupancy quartiles
  std::vector<cov::PointId> p_b_pair_;         // dual-issue pair classes

  // ---- cross / sequence instrumentation -------------------------------------
  // Per-instruction event record used to evaluate cross conditions; mirrors
  // the pipeline-state terms that appear in real RTL condition expressions.
  struct StepEvents {
    bool is_load = false, is_store = false, is_amo = false, is_lrsc = false,
         is_csr = false, is_muldiv = false, is_div = false, is_branch = false,
         is_fencei = false, is_jump = false;
    bool taken = false, taken_backward = false, mispredict = false;
    bool icache_miss = false, dcache_miss = false, dcache_hit_dirty = false;
    bool dcache_access = false, dcache_evict_valid = false,
         dcache_evict_dirty = false;
    bool trap = false;
    riscv::Exception cause = riscv::Exception::kNone;
    riscv::Priv priv = riscv::Priv::kMachine;  // privilege at issue
    bool has_mem_addr = false;
    std::uint64_t mem_addr = 0;
    bool csr_write = false;
    std::uint16_t csr_addr = 0;
    bool store_hits_reservation = false;  // store overlapped the LR address
    bool sc_success = false;
  };
  void evaluate_cross_units();
  /// Outcomes of the sequence-pair and cache-cross condition points for the
  /// current (ev_, prev_ev_) pair, in registration order. One source of
  /// truth for both paths: evaluate_cross_units() feeds them through cc()
  /// per instruction, the fused span loop accumulates true-counts locally
  /// and folds them at span exit via hit_n.
  static constexpr std::size_t kMaxSeqPoints = 12;
  static constexpr std::size_t kMaxCacheCrossPoints = 10;
  void seq_cache_outcomes(bool* seq, bool* cx) const;
  /// The cause x privilege cross block (trap instructions only).
  void trap_cause_priv_points();

  StepEvents ev_;       // current instruction
  StepEvents prev_ev_;  // previous instruction
  std::size_t cur_op_index_ = 0;  // decoded opcode index (kNumOpcodes = invalid)

  // Deferred select-chain accounting (CoreConfig::deferred_select_chains):
  // per-instruction opcode/privilege histograms, folded into the DB in one
  // pass by fold_deferred_chains(). The +1 slot is the invalid decode.
  std::uint64_t chain_steps_ = 0;
  std::vector<std::uint64_t> op_count_;       // [kNumOpcodes + 1]
  std::vector<std::uint64_t> op_priv_count_;  // [2][kNumOpcodes + 1]
  std::array<std::uint64_t, 16> priv_class_count_{};  // [2 priv][8 class]

  // Privilege x instruction-class crosses (deep: need a privilege
  // transition followed by the specific class).
  std::vector<cov::PointId> p_cross_priv_class_;  // [2 priv][8 class]
  // Privilege x opcode select chain (depth 2): the decode comparators are
  // replicated per privilege domain in the real RTL's privilege-gated
  // datapaths; sustained U/S-mode execution of the whole ISA is required to
  // close these — the dominant uncovered mass in a 24 h RocketCore campaign.
  std::vector<cov::PointId> p_cross_op_priv_;  // [2 priv][kNumOpcodes]
  // Exception cause x origin privilege (evaluated in the trap unit).
  std::vector<cov::PointId> p_cross_cause_priv_;  // [7 cause][2 priv]
  // Sequence pairs over consecutive instructions.
  std::vector<cov::PointId> p_seq_;
  // Cache/memory state crosses.
  std::vector<cov::PointId> p_cache_cross_;
  // Per-CSR write-performed points.
  std::vector<cov::PointId> p_csr_write_addr_;
  std::vector<std::uint16_t> csr_write_addrs_;
  // Mul/div operand crosses.
  std::vector<cov::PointId> p_md_cross_;
  // TLB unit: consulted only when Sv39 is live (satp.MODE==8 outside
  // M-mode — requires a satp write plus an mret/sret transition first).
  // Wired to the real TLB/walker: lookup, hit, superpage leaf, store
  // permission path, ASID bits, refill walk.
  std::vector<cov::PointId> p_tlb_;
};

}  // namespace chatfuzz::rtl
