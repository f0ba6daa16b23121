#include "rtlsim/core.h"

#include <algorithm>

#include "riscv/alu.h"
#include "riscv/decode.h"

namespace chatfuzz::rtl {

using riscv::Decoded;
using riscv::Exception;
using riscv::Opcode;
using riscv::Priv;
using sim::CommitRecord;

namespace {
bool is_csr_op(Opcode op) {
  const auto& s = riscv::spec(op);
  return s.ext == riscv::Ext::kZicsr;
}
bool is_wform_op(Opcode op) {
  switch (op) {
    case Opcode::kAddiw: case Opcode::kSlliw: case Opcode::kSrliw:
    case Opcode::kSraiw: case Opcode::kAddw: case Opcode::kSubw:
    case Opcode::kSllw: case Opcode::kSrlw: case Opcode::kSraw:
    case Opcode::kMulw: case Opcode::kDivw: case Opcode::kDivuw:
    case Opcode::kRemw: case Opcode::kRemuw:
      return true;
    default:
      return false;
  }
}
}  // namespace

RtlCore::RtlCore(const CoreConfig& cfg, cov::CoverageDB& db, sim::Platform plat)
    : DutCore(cfg, db, plat) {
  register_points();
  op_count_.assign(riscv::kNumOpcodes + 1, 0);
  op_priv_count_.assign(2 * (riscv::kNumOpcodes + 1), 0);
}

void RtlCore::fold_deferred_chains() {
  if (chain_steps_ == 0) return;
  const std::uint64_t total = chain_steps_;
  // Each chain comparator i was evaluated `total` times and true exactly
  // `count[i]` of them, so the fold reproduces per-instruction evaluation
  // bin for bin (hit_n also sets the stand-alone test bins).
  for (std::size_t i = 0; i < riscv::kNumOpcodes; ++i) {
    const std::uint64_t t = op_count_[i];
    db_.hit_n(p_dec_op_[i], true, t);
    db_.hit_n(p_dec_op_[i], false, total - t);
  }
  std::fill(op_count_.begin(), op_count_.end(), 0);
  if (!p_cross_op_priv_.empty()) {
    for (std::size_t p = 0; p < 2; ++p) {
      const std::size_t cbase = p * (riscv::kNumOpcodes + 1);
      const std::size_t base = p * riscv::kNumOpcodes;
      for (std::size_t i = 0; i < riscv::kNumOpcodes; ++i) {
        const std::uint64_t t = op_priv_count_[cbase + i];
        db_.hit_n(p_cross_op_priv_[base + i], true, t);
        db_.hit_n(p_cross_op_priv_[base + i], false, total - t);
      }
    }
    std::fill(op_priv_count_.begin(), op_priv_count_.end(), 0);
  }
  if (!p_cross_priv_class_.empty()) {
    for (std::size_t i = 0; i < priv_class_count_.size(); ++i) {
      const std::uint64_t t = priv_class_count_[i];
      db_.hit_n(p_cross_priv_class_[i], true, t);
      db_.hit_n(p_cross_priv_class_[i], false, total - t);
    }
    priv_class_count_.fill(0);
  }
  chain_steps_ = 0;
}

void RtlCore::register_points() {
  auto add = [this](const char* name) { return db_.register_cond(name); };

  p_ic_hit_ = add("fetch.icache.hit");
  p_ic_evict_ = add("fetch.icache.evict_valid");
  p_btb_hit_ = add("fetch.btb.hit");
  p_pred_taken_ = add("fetch.btb.pred_taken");
  p_mispredict_ = add("fetch.btb.mispredict");
  p_fencei_flush_ = add("fetch.icache.fencei_flush");
  p_fetch_cross_ = add("fetch.line_cross");
  if (cfg_.cross_depth >= 2) {
    for (unsigned s = 0; s < cfg_.icache_sets; ++s) {
      p_ic_set_evict_.push_back(db_.register_cond(
          "fetch.icache.set" + std::to_string(s) + ".evict"));
    }
  }

  p_dec_valid_ = add("decode.valid");
  p_dec_load_ = add("decode.is_load");
  p_dec_store_ = add("decode.is_store");
  p_dec_branch_ = add("decode.is_branch");
  p_dec_jal_ = add("decode.is_jal");
  p_dec_jalr_ = add("decode.is_jalr");
  p_dec_aluimm_ = add("decode.is_alu_imm");
  p_dec_alureg_ = add("decode.is_alu_reg");
  p_dec_wform_ = add("decode.is_w_form");
  p_dec_muldiv_ = add("decode.is_muldiv");
  p_dec_div_ = add("decode.is_div");
  p_dec_amo_ = add("decode.is_amo");
  p_dec_lr_ = add("decode.is_lr");
  p_dec_sc_ = add("decode.is_sc");
  p_dec_csr_ = add("decode.is_csr");
  p_dec_fence_ = add("decode.is_fence");
  p_dec_system_ = add("decode.is_system");
  p_dec_rd_x0_ = add("decode.rd_is_x0");
  p_dec_rs1_x0_ = add("decode.rs1_is_x0");
  for (std::size_t i = 0; i < riscv::kNumOpcodes; ++i) {
    p_dec_op_.push_back(db_.register_cond(
        "decode.sel." + std::string(riscv::all_specs()[i].mnemonic)));
  }
  // Batched points for the superblock fast path, in step()'s evaluation
  // order; the outcome of each is a pure function of (decode, fetch pc), so
  // build_superblock() precomputes them as FusedSlot::class_bits and the
  // span exit folds the counts via hit_n(). Counts are order-insensitive:
  // the DB bins come out identical to per-instruction cc() calls.
  p_fused_batch_ = {p_dec_valid_, p_dec_load_,   p_dec_store_, p_dec_branch_,
                    p_dec_jal_,   p_dec_jalr_,   p_dec_aluimm_, p_dec_alureg_,
                    p_dec_wform_, p_dec_muldiv_, p_dec_div_,    p_dec_amo_,
                    p_dec_lr_,    p_dec_sc_,     p_dec_csr_,    p_dec_fence_,
                    p_dec_system_, p_dec_rd_x0_, p_dec_rs1_x0_, p_fetch_cross_};

  p_ex_bypass_rs1_ = add("exec.bypass_rs1");
  p_ex_bypass_rs2_ = add("exec.bypass_rs2");
  p_ex_load_use_ = add("exec.load_use_stall");
  p_ex_res_zero_ = add("exec.result_zero");
  p_ex_res_neg_ = add("exec.result_negative");
  p_ex_same_src_ = add("exec.rs1_eq_rs2");
  p_ex_shamt_zero_ = add("exec.shamt_zero");
  p_ex_br_taken_ = add("exec.branch_taken");
  p_ex_br_backward_ = add("exec.branch_backward");
  p_ex_target_misaligned_ = add("exec.target_misaligned");

  p_md_busy_ = add("muldiv.busy");
  p_md_div0_ = add("muldiv.div_by_zero");
  p_md_overflow_ = add("muldiv.signed_overflow");
  p_md_sign_mix_ = add("muldiv.sign_mix");
  p_md_word_ = add("muldiv.word_op");
  p_md_high_ = add("muldiv.high_half");

  p_dc_hit_ = add("mem.dcache.hit");
  p_dc_evict_valid_ = add("mem.dcache.evict_valid");
  p_dc_evict_dirty_ = add("mem.dcache.evict_dirty");
  p_mem_misaligned_ = add("mem.misaligned");
  p_mem_fault_ = add("mem.access_fault");
  p_mem_store_ = add("mem.is_store");
  p_mem_size8_ = add("mem.size_dword");
  p_mem_sc_ok_ = add("mem.sc_success");
  p_mem_resv_valid_ = add("mem.reservation_valid");
  p_mem_amo_min_ = add("mem.amo_minmax");
  p_mem_amo_logic_ = add("mem.amo_logic");
  if (cfg_.cross_depth >= 2) {
    for (unsigned s = 0; s < cfg_.dcache_sets; ++s) {
      p_dc_set_evict_.push_back(db_.register_cond(
          "mem.dcache.set" + std::to_string(s) + ".evict"));
    }
  }

  p_csr_illegal_addr_ = add("csr.illegal_address");
  p_csr_priv_fail_ = add("csr.priv_violation");
  p_csr_ro_write_ = add("csr.readonly_write");
  p_csr_machine_ = add("csr.machine_level_access");
  p_csr_super_ = add("csr.supervisor_level_access");
  p_csr_counter_ = add("csr.counter_access");
  p_csr_satp_ = add("csr.satp_access");
  p_csr_write_side_ = add("csr.write_performed");

  // 16 causes: 0-11 plus the Sv39 page faults 12/13/15 (14 reserved, never
  // true — part of the honest unreachable tail).
  for (int c = 0; c < 16; ++c) {
    p_trap_cause_.push_back(
        db_.register_cond("trap.cause" + std::to_string(c)));
  }
  p_trap_from_u_ = add("trap.from_user");
  p_trap_from_s_ = add("trap.from_supervisor");
  p_mret_ = add("trap.mret");
  p_sret_ = add("trap.sret");
  p_sret_to_u_ = add("trap.sret_to_user");
  p_mret_to_u_ = add("trap.mret_to_user");
  p_mret_to_s_ = add("trap.mret_to_supervisor");
  p_wfi_ = add("trap.wfi");
  p_deleg_ = add("trap.medeleg_nonzero");
  p_deleg_taken_ = add("trap.delegated");
  p_sfence_ = add("trap.sfence_vma");

  // Background/uncore units: the realistic unreachable tail of the full
  // RocketCore instrumentation. The BOOM build (cross_depth 1) instruments
  // the core pipeline subset only — its coverage therefore saturates near
  // the paper's 97% instead of Rocket's ~80%.
  if (cfg_.cross_depth >= 2) {
    for (int c = 0; c < 6; ++c) {
      p_irq_pending_.push_back(
          db_.register_cond("irq.pending" + std::to_string(c)));
    }
    p_debug_halt_ = add("debug.haltreq");
    p_debug_step_ = add("debug.single_step");
    p_ecc_ic_ = add("fetch.icache.ecc_error");
    p_ecc_dc_ = add("mem.dcache.ecc_error");
    p_pmp_hit_ = add("pmp.entry_match");
    p_pmp_fault_ = add("pmp.access_fault");
    p_ptw_active_ = add("ptw.active");
    p_ptw_level_ = add("ptw.leaf_level");
    p_ptw_fault_ = add("ptw.page_fault");
    p_ctr_overflow_ = add("counters.instret_overflow");
  }

  if (cfg_.superscalar) {
    p_b_dual_issue_ = add("boom.dual_issue");
    p_b_rename_alloc_ = add("boom.rename_alloc");
    p_b_rob_full_ = add("boom.rob_full");
    p_b_flush_ = add("boom.pipeline_flush");
    p_b_wakeup_ = add("boom.issue_wakeup");
    for (int bank = 0; bank < 8; ++bank) {
      p_b_rename_bank_.push_back(
          db_.register_cond("boom.rename.bank" + std::to_string(bank)));
    }
    for (int q = 0; q < 4; ++q) {
      p_b_rob_window_.push_back(
          db_.register_cond("boom.rob.window" + std::to_string(q)));
    }
    for (const char* cls : {"alu", "load", "store", "branch", "muldiv", "csr"}) {
      p_b_pair_.push_back(
          db_.register_cond(std::string("boom.pair.") + cls));
    }
  }

  // ---- cross/sequence instrumentation (the hard tail) ----------------------
  static const char* kClassNames[8] = {"load", "store",  "amo",    "lrsc",
                                       "csr",  "muldiv", "fencei", "branch"};
  if (cfg_.cross_depth >= 2) {
    for (const char* priv_name : {"user", "super"}) {
      for (const char* cls : kClassNames) {
        p_cross_priv_class_.push_back(db_.register_cond(
            std::string("cross.") + priv_name + "." + cls));
      }
    }
  }
  if (cfg_.cross_depth >= 1) {
    for (const char* seq :
         {"seq.div_after_div", "seq.muldiv_chain",
          "seq.branch_after_taken_branch", "seq.amo_after_amo",
          "seq.store_to_load_forward"}) {
      p_seq_.push_back(db_.register_cond(seq));
    }
    for (const char* cx :
         {"cache.double_dcache_miss", "cache.ic_dc_miss_same_instr",
          "cache.icache_miss_and_mispredict", "cache.dcache_hit_dirty"}) {
      p_cache_cross_.push_back(db_.register_cond(cx));
    }
    csr_write_addrs_ = {riscv::csr::kMstatus,  riscv::csr::kMie,
                        riscv::csr::kMtvec,    riscv::csr::kMscratch,
                        riscv::csr::kMepc,     riscv::csr::kMcause,
                        riscv::csr::kSatp,     riscv::csr::kSscratch};
    for (std::uint16_t addr : csr_write_addrs_) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "csr.write.0x%03x", addr);
      p_csr_write_addr_.push_back(db_.register_cond(buf));
    }
    for (const char* md : {"muldiv.div0_word", "muldiv.overflow_rem",
                           "muldiv.high_sign_mix"}) {
      p_md_cross_.push_back(db_.register_cond(md));
    }
  }
  if (cfg_.cross_depth >= 2) {
    for (const char* seq :
         {"seq.double_mispredict", "seq.double_trap", "seq.fencei_after_store",
          "seq.trap_after_csr_write", "seq.load_after_amo",
          "seq.backward_branch_pair", "seq.jump_after_trap"}) {
      p_seq_.push_back(db_.register_cond(seq));
    }
    for (const char* cx :
         {"cache.amo_dcache_miss", "cache.lrsc_dcache_miss",
          "cache.store_clobbers_reservation", "cache.mem_fault_in_user",
          "cache.misaligned_store_trap", "cache.sc_success_in_super"}) {
      p_cache_cross_.push_back(db_.register_cond(cx));
    }
    for (std::uint16_t addr : {riscv::csr::kMtval, riscv::csr::kMedeleg,
                               riscv::csr::kStvec, riscv::csr::kSepc}) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "csr.write.0x%03x", addr);
      p_csr_write_addr_.push_back(db_.register_cond(buf));
      csr_write_addrs_.push_back(addr);
    }
    for (const char* md : {"muldiv.div_equal_operands",
                           "muldiv.mul_result_zero",
                           "muldiv.div_after_load"}) {
      p_md_cross_.push_back(db_.register_cond(md));
    }
    // cause x privilege (needs a privilege drop *and* that exception there).
    static const char* kCauseNames[7] = {
        "illegal", "breakpoint", "load_misaligned", "load_fault",
        "store_misaligned", "store_fault", "ecall"};
    for (const char* cause : kCauseNames) {
      for (const char* priv_name : {"user", "super"}) {
        p_cross_cause_priv_.push_back(db_.register_cond(
            std::string("trap.cross.") + cause + "." + priv_name));
      }
    }
    // Bare-translation TLB: consulted only when satp != 0 outside M-mode.
    for (const char* t : {"tlb.lookup", "tlb.hit", "tlb.superpage",
                          "tlb.store_perm", "tlb.asid_nonzero",
                          "tlb.refill_walk"}) {
      p_tlb_.push_back(db_.register_cond(t));
    }
    // Privilege-gated decode chains (see core.h).
    for (const char* priv_name : {"user", "super"}) {
      for (std::size_t i = 0; i < riscv::kNumOpcodes; ++i) {
        p_cross_op_priv_.push_back(db_.register_cond(
            std::string("cross.") + priv_name + ".op." +
            std::string(riscv::all_specs()[i].mnemonic)));
      }
    }
  }
}

void RtlCore::evaluate_cross_units() {
  if (cfg_.cross_depth < 1) return;
  const bool classes[8] = {ev_.is_load,   ev_.is_store, ev_.is_amo,
                           ev_.is_lrsc,   ev_.is_csr,   ev_.is_muldiv,
                           ev_.is_fencei, ev_.is_branch};
  // Privilege bucket of this instruction for the deferred histograms
  // (M-mode instructions count as false on every U/S comparator, which the
  // fold's `total - true_count` term supplies for free).
  const int pidx = ev_.priv == Priv::kUser        ? 0
                   : ev_.priv == Priv::kSupervisor ? 1
                                                   : -1;
  // priv x class: evaluated every instruction (full-depth build only).
  if (!p_cross_priv_class_.empty()) {
    if (cfg_.deferred_select_chains) {
      if (pidx >= 0) {
        for (int c = 0; c < 8; ++c) {
          priv_class_count_[static_cast<std::size_t>(pidx) * 8 +
                            static_cast<std::size_t>(c)] += classes[c] ? 1 : 0;
        }
      }
    } else {
      for (int p = 0; p < 2; ++p) {
        const riscv::Priv priv = p == 0 ? Priv::kUser : Priv::kSupervisor;
        for (int c = 0; c < 8; ++c) {
          cc(p_cross_priv_class_[p * 8 + c], ev_.priv == priv && classes[c]);
        }
      }
    }
  }
  // privilege-gated decode chains (depth 2).
  if (!p_cross_op_priv_.empty()) {
    if (cfg_.deferred_select_chains) {
      if (pidx >= 0) {
        ++op_priv_count_[static_cast<std::size_t>(pidx) *
                             (riscv::kNumOpcodes + 1) +
                         cur_op_index_];
      }
    } else {
      for (int p = 0; p < 2; ++p) {
        const riscv::Priv priv = p == 0 ? Priv::kUser : Priv::kSupervisor;
        const bool in_priv = ev_.priv == priv;
        const std::size_t base =
            static_cast<std::size_t>(p) * riscv::kNumOpcodes;
        if (!in_priv) {
          // All comparators evaluate false in one pass.
          for (std::size_t i = 0; i < riscv::kNumOpcodes; ++i) {
            db_.hit(p_cross_op_priv_[base + i], false);
          }
        } else {
          for (std::size_t i = 0; i < riscv::kNumOpcodes; ++i) {
            db_.hit(p_cross_op_priv_[base + i], i == cur_op_index_);
          }
        }
      }
    }
  }
  // sequence pairs + cache crosses (outcomes shared with the fused loop).
  bool seq[kMaxSeqPoints];
  bool cx[kMaxCacheCrossPoints];
  seq_cache_outcomes(seq, cx);
  for (std::size_t i = 0; i < p_seq_.size(); ++i) cc(p_seq_[i], seq[i]);
  for (std::size_t i = 0; i < p_cache_cross_.size(); ++i) {
    cc(p_cache_cross_[i], cx[i]);
  }
  // per-CSR writes.
  for (std::size_t i = 0; i < p_csr_write_addr_.size(); ++i) {
    if (ev_.is_csr) {
      cc(p_csr_write_addr_[i],
         ev_.csr_write && ev_.csr_addr == csr_write_addrs_[i]);
    }
  }
  // cause x privilege: evaluated in raise() via ev_ on trap.
  if (cfg_.cross_depth >= 2 && ev_.trap) trap_cause_priv_points();
}

void RtlCore::seq_cache_outcomes(bool* seq, bool* cx) const {
  // Registration order; entries past p_seq_/p_cache_cross_.size() (reduced
  // cross_depth builds) are computed but never read.
  std::size_t s = 0;
  seq[s++] = ev_.is_div && prev_ev_.is_div;
  seq[s++] = ev_.is_muldiv && prev_ev_.is_muldiv;
  seq[s++] = ev_.is_branch && prev_ev_.is_branch && prev_ev_.taken;
  seq[s++] = ev_.is_amo && prev_ev_.is_amo;
  seq[s++] = ev_.is_load && prev_ev_.is_store && ev_.has_mem_addr &&
             prev_ev_.has_mem_addr && ev_.mem_addr == prev_ev_.mem_addr;
  seq[s++] = ev_.mispredict && prev_ev_.mispredict;
  seq[s++] = ev_.trap && prev_ev_.trap;
  seq[s++] = ev_.is_fencei && prev_ev_.is_store;
  seq[s++] = ev_.trap && prev_ev_.csr_write;
  seq[s++] = ev_.is_load && prev_ev_.is_amo;
  seq[s++] = ev_.taken_backward && prev_ev_.taken_backward;
  seq[s++] = ev_.is_jump && prev_ev_.trap;
  std::size_t x = 0;
  cx[x++] = ev_.dcache_miss && prev_ev_.dcache_miss;
  cx[x++] = ev_.dcache_miss && ev_.icache_miss;
  cx[x++] = ev_.icache_miss && ev_.mispredict;
  cx[x++] = ev_.dcache_hit_dirty;
  cx[x++] = ev_.is_amo && ev_.dcache_miss;
  cx[x++] = ev_.is_lrsc && ev_.dcache_miss;
  cx[x++] = ev_.store_hits_reservation;
  cx[x++] = ev_.trap && ev_.priv == Priv::kUser &&
            (ev_.cause == Exception::kLoadAccessFault ||
             ev_.cause == Exception::kStoreAccessFault);
  cx[x++] = ev_.trap && ev_.cause == Exception::kStoreAddrMisaligned;
  cx[x++] = ev_.sc_success && ev_.priv == Priv::kSupervisor;
}

void RtlCore::trap_cause_priv_points() {
  static const Exception kCauses[7] = {
      Exception::kIllegalInstruction, Exception::kBreakpoint,
      Exception::kLoadAddrMisaligned, Exception::kLoadAccessFault,
      Exception::kStoreAddrMisaligned, Exception::kStoreAccessFault,
      Exception::kEcallFromU /* placeholder; ecall handled below */};
  for (int ci = 0; ci < 7; ++ci) {
    for (int p = 0; p < 2; ++p) {
      const riscv::Priv priv = p == 0 ? Priv::kUser : Priv::kSupervisor;
      bool match;
      if (ci == 6) {
        match = (ev_.cause == Exception::kEcallFromU ||
                 ev_.cause == Exception::kEcallFromS) &&
                ev_.priv == priv;
      } else {
        match = ev_.cause == kCauses[ci] && ev_.priv == priv;
      }
      cc(p_cross_cause_priv_[ci * 2 + p], match);
    }
  }
}

void RtlCore::reset(std::span<const std::uint32_t> program) {
  // A run abandoned mid-flight still owns deferred chain counters; land
  // them first so the DB holds every evaluation the old code would have.
  fold_deferred_chains();
  reset_common(program);
  regs_ = sim::initial_regs(plat_);
  ev_ = StepEvents{};
  prev_ev_ = StepEvents{};
  // Cached spans are already stale — the I$ flush bumped every line
  // generation — but dropping them keeps the span arena flat across tests.
  sb_.flush();
  sb_builds_ = 0;
  last_rd_ = 0;
  last_was_load_ = false;
  last_was_short_alu_ = false;
}

sim::RunResult RtlCore::run() {
  // The fused path only models the configuration subset it can replay
  // exactly: in-order pipeline, deferred select chains (per-instruction
  // chains would re-order cc() calls), no CLINT (interrupt polling is
  // per-step), no metric suite (on_step hooks are per-instruction).
  const bool fused_ok = sb_enabled_ && cfg_.deferred_select_chains &&
                        !cfg_.superscalar && !plat_.clint_enabled &&
                        metrics_ == nullptr;
  if (fused_ok) {
    while (!stopped_) {
      if (!translation_active() && run_superblock()) continue;
      step();
    }
  } else {
    while (!stopped_) step();
  }
  return finish_run();
}

const RtlCore::FusedIndex::Span* RtlCore::build_superblock() {
  FusedIndex::Span& span = sb_.begin_build(pc_);
  const std::vector<std::uint64_t>& gens = icache_.line_gens();
  std::uint64_t addr = pc_;
  for (std::size_t i = 0; i < riscv::kMaxSuperblockLen; ++i, addr += 4) {
    if (!mem_.in_ram(addr, 4)) break;
    std::uint32_t raw = 0;
    std::uint32_t line = 0;
    if (!icache_.peek(addr, &raw, &line)) {
      // Word not resident: the span ends here and the slow path's refill
      // handles it. Guard every way of the set the refill will land in, so
      // the refill's generation bump retires this span and the rebuild can
      // extend across the now-resident line.
      const std::uint32_t set = static_cast<std::uint32_t>(
          (addr / cfg_.icache_line) % cfg_.icache_sets);
      for (std::uint32_t w = 0; w < cfg_.icache_ways; ++w) {
        const std::uint32_t l = set * cfg_.icache_ways + w;
        if (!sb_.add_guard(span, l, gens[l])) break;
      }
      break;
    }
    // Guard the serving line: its generation moves on refill-eviction,
    // effective invalidation and flush — any event after which fetch()
    // could serve different bytes than peek() just did.
    if (!sb_.add_guard(span, line, gens[line])) break;
    if (raw == 0) break;  // end-of-program padding: slow path stops on it
    FusedSlot slot;
    slot.d = riscv::decode(raw);
    if (riscv::superblock_terminator(slot.d)) break;
    const Decoded& d = slot.d;
    // Precompute the batched decode-point outcomes exactly as step()
    // evaluates them (d.valid() is true here — terminators include invalid).
    std::uint32_t bits = 1u;  // decode.valid
    bits |= static_cast<std::uint32_t>(is_load_op(d.op)) << 1;
    bits |= static_cast<std::uint32_t>(is_store_op(d.op)) << 2;
    bits |= static_cast<std::uint32_t>(is_branch_op(d.op)) << 3;
    bits |= static_cast<std::uint32_t>(d.op == Opcode::kJal) << 4;
    bits |= static_cast<std::uint32_t>(d.op == Opcode::kJalr) << 5;
    bits |= static_cast<std::uint32_t>(is_alu_imm_op(d.op)) << 6;
    bits |= static_cast<std::uint32_t>(is_alu_reg_op(d.op)) << 7;
    bits |= static_cast<std::uint32_t>(is_wform_op(d.op)) << 8;
    bits |= static_cast<std::uint32_t>(riscv::is_muldiv(d.op)) << 9;
    bits |= static_cast<std::uint32_t>(riscv::is_div(d.op)) << 10;
    bits |= static_cast<std::uint32_t>(is_amo_op(d.op)) << 11;
    bits |= static_cast<std::uint32_t>(d.op == Opcode::kLrW ||
                                       d.op == Opcode::kLrD) << 12;
    bits |= static_cast<std::uint32_t>(d.op == Opcode::kScW ||
                                       d.op == Opcode::kScD) << 13;
    bits |= static_cast<std::uint32_t>(is_csr_op(d.op)) << 14;
    bits |= static_cast<std::uint32_t>(d.op == Opcode::kFence ||
                                       d.op == Opcode::kFenceI) << 15;
    bits |= static_cast<std::uint32_t>(
                riscv::spec(d.op).format == riscv::Format::kSystem) << 16;
    bits |= static_cast<std::uint32_t>(d.rd == 0) << 17;
    bits |= static_cast<std::uint32_t>(d.rs1 == 0) << 18;
    bits |= static_cast<std::uint32_t>(
                addr % cfg_.icache_line == cfg_.icache_line - 4) << 19;
    slot.class_bits = bits;
    slot.op_index = static_cast<std::uint16_t>(d.op);
    std::uint16_t evb = 0;
    evb |= static_cast<std::uint16_t>(is_load_op(d.op)) << 0;
    evb |= static_cast<std::uint16_t>(is_store_op(d.op)) << 1;
    evb |= static_cast<std::uint16_t>(is_amo_op(d.op)) << 2;
    evb |= static_cast<std::uint16_t>((bits >> 12 | bits >> 13) & 1u) << 3;
    evb |= static_cast<std::uint16_t>(riscv::is_muldiv(d.op)) << 4;
    evb |= static_cast<std::uint16_t>(riscv::is_div(d.op)) << 5;
    slot.ev_bits = evb;
    for (std::size_t j = 0; j < kNumFusedPoints; ++j) {
      span.extra[j] += (bits >> j) & 1u;
    }
    sb_.push(span, slot);
  }
  return &span;
}

bool RtlCore::run_superblock() {
  if (steps_ >= plat_.max_steps) return false;
  const std::vector<std::uint64_t>& gens = icache_.line_gens();
  const FusedIndex::Span* span = sb_.find(pc_, gens);
  if (span == nullptr) {
    // Churn guard (see sb_builds_): past the warmup allowance, build at
    // most one span per 16 committed instructions.
    if (sb_builds_ > 8 && sb_builds_ * 16 > steps_) return false;
    ++sb_builds_;
    ++obs_.sb_builds;
    span = build_superblock();
  } else {
    ++obs_.sb_hits;
  }
  if (span->len == 0) return false;
  const FusedSlot* slots = sb_.slots(*span);
  const std::uint64_t budget = plat_.max_steps - steps_;
  const std::uint64_t n = span->len < budget ? span->len : budget;
  std::uint64_t executed = 0;
  std::uint64_t ctr_true = 0;  // background ctr-overflow true evaluations
  // evaluate_cross_units(), batched: the seq/cache-cross points accumulate
  // true-counts locally and fold at span exit via hit_n — counters are
  // order-insensitive, so the DB ends bit-identical to per-slot cc() calls.
  const bool cross_on = cfg_.cross_depth >= 1;
  const std::size_t n_seq = p_seq_.size();
  const std::size_t n_cx = p_cache_cross_.size();
  std::array<std::uint32_t, kMaxSeqPoints> seq_counts{};
  std::array<std::uint32_t, kMaxCacheCrossPoints> cx_counts{};
  while (executed < n) {
    const FusedSlot& s = slots[executed];
    ev_ = StepEvents{};
    ev_.priv = priv_;
    ev_.is_load = (s.ev_bits & (1u << 0)) != 0;
    ev_.is_store = (s.ev_bits & (1u << 1)) != 0;
    ev_.is_amo = (s.ev_bits & (1u << 2)) != 0;
    ev_.is_lrsc = (s.ev_bits & (1u << 3)) != 0;
    ev_.is_muldiv = (s.ev_bits & (1u << 4)) != 0;
    ev_.is_div = (s.ev_bits & (1u << 5)) != 0;
    ++steps_;
    ++cycles_;
    CommitRecord rec;
    rec.pc = pc_;
    rec.instr = s.d.raw;
    rec.priv = priv_;
    cur_op_index_ = s.op_index;
    ++chain_steps_;
    ++op_count_[cur_op_index_];
    // evaluate_background_units(): the instret comparison runs before
    // execute() in the slow path; the irq/debug outcomes are constant over
    // the span (CSR ops terminate spans, no CLINT) and fold at exit.
    ctr_true += static_cast<std::uint64_t>(csrs_.instret > (1ull << 62));
    execute(s.d, rec);
    if (rec.exception == Exception::kNone) ++csrs_.instret;
    if (cross_on) {
      const int pidx = ev_.priv == Priv::kUser         ? 0
                       : ev_.priv == Priv::kSupervisor ? 1
                                                       : -1;
      if (pidx >= 0) {
        if (!p_cross_priv_class_.empty()) {
          const bool classes[8] = {ev_.is_load,   ev_.is_store, ev_.is_amo,
                                   ev_.is_lrsc,   ev_.is_csr,   ev_.is_muldiv,
                                   ev_.is_fencei, ev_.is_branch};
          for (int c = 0; c < 8; ++c) {
            priv_class_count_[static_cast<std::size_t>(pidx) * 8 +
                              static_cast<std::size_t>(c)] +=
                classes[c] ? 1 : 0;
          }
        }
        if (!p_cross_op_priv_.empty()) {
          ++op_priv_count_[static_cast<std::size_t>(pidx) *
                               (riscv::kNumOpcodes + 1) +
                           cur_op_index_];
        }
      }
      bool seq[kMaxSeqPoints];
      bool cx[kMaxCacheCrossPoints];
      seq_cache_outcomes(seq, cx);
      for (std::size_t j = 0; j < n_seq; ++j) seq_counts[j] += seq[j];
      for (std::size_t j = 0; j < n_cx; ++j) cx_counts[j] += cx[j];
      // Per-CSR write points are gated on is_csr (a span terminator) and
      // the cause x priv block on trap — the only per-slot cc() left.
      if (cfg_.cross_depth >= 2 && ev_.trap) trap_cause_priv_points();
    }
    prev_ev_ = ev_;
    commit(rec, s.d, /*icache_hit=*/true);  // fused fetches always hit
    ++executed;
    if (rec.exception != Exception::kNone) {
      // The magic trampoline resumes at the faulting pc + 4 — the span's
      // fall-through — so execution stays in-span unless the trap delegated
      // into an S-mode translation context.
      if (translation_active()) break;
    } else if (rec.has_mem && rec.mem_is_store &&
               !FusedIndex::fresh(*span, gens)) {
      // The store invalidated an I$ line under this very span (only
      // possible with the stale-I$ bug off): remaining slots may decode
      // bytes fetch() would no longer serve, so re-fetch via the slow path.
      break;
    }
  }
  // ---- span-exit folds of the batched per-instruction points ----
  std::array<std::uint32_t, kNumFusedPoints> counts{};
  if (executed == span->len) {
    counts = span->extra;
  } else {
    for (std::uint64_t i = 0; i < executed; ++i) {
      for (std::size_t j = 0; j < kNumFusedPoints; ++j) {
        counts[j] += (slots[i].class_bits >> j) & 1u;
      }
    }
  }
  const std::uint64_t k = executed;
  for (std::size_t j = 0; j < kNumFusedPoints; ++j) {
    db_.hit_n(p_fused_batch_[j], true, counts[j]);
    db_.hit_n(p_fused_batch_[j], false, k - counts[j]);
  }
  db_.hit_n(p_ic_hit_, true, k);
  if (!p_tlb_.empty()) db_.hit_n(p_tlb_[0], false, k);  // MMU found Bare
  for (std::size_t i = 0; i < p_irq_pending_.size(); ++i) {
    const std::uint64_t bit = 1ull << (1 + 2 * i);
    db_.hit_n(p_irq_pending_[i], (csrs_.mie & csrs_.mip & bit) != 0, k);
  }
  if (cfg_.cross_depth >= 2) {
    db_.hit_n(p_debug_halt_, false, k);
    db_.hit_n(p_debug_step_, false, k);
    db_.hit_n(p_ctr_overflow_, true, ctr_true);
    db_.hit_n(p_ctr_overflow_, false, k - ctr_true);
  }
  if (cross_on) {
    for (std::size_t j = 0; j < n_seq; ++j) {
      db_.hit_n(p_seq_[j], true, seq_counts[j]);
      db_.hit_n(p_seq_[j], false, k - seq_counts[j]);
    }
    for (std::size_t j = 0; j < n_cx; ++j) {
      db_.hit_n(p_cache_cross_[j], true, cx_counts[j]);
      db_.hit_n(p_cache_cross_[j], false, k - cx_counts[j]);
    }
  }
  return executed > 0;
}

riscv::Exception RtlCore::translate_cc(std::uint64_t vaddr, MemAccess kind,
                                       std::uint64_t& paddr) {
  TlbWalk walk;
  const Exception f = translate(vaddr, kind, paddr, &walk);
  if (p_tlb_.empty()) return f;  // MMU points exist at cross_depth 2 only
  cc(p_tlb_[3], kind == MemAccess::kStore);           // store-permission path
  cc(p_tlb_[4], ((csrs_.satp >> 44) & 0xffff) != 0);  // ASID bits set
  if (walk.looked_up) {
    cc(p_tlb_[1], walk.hit);
    cc(p_tlb_[5], !walk.hit);  // refill walk engaged
    cc(p_ptw_active_, !walk.hit);
    if (walk.level >= 0) {
      cc(p_tlb_[2], walk.level > 0);  // superpage leaf
      cc(p_ptw_level_, walk.level > 0);
    }
  }
  cc(p_ptw_fault_, f != Exception::kNone);
  return f;
}

void RtlCore::raise(CommitRecord& rec, Exception cause, std::uint64_t tval) {
  ev_.trap = true;
  ev_.cause = cause;
  // Trap-unit condition points: one per cause, plus origin privilege.
  for (std::size_t c = 0; c < p_trap_cause_.size(); ++c) {
    cc(p_trap_cause_[c], static_cast<std::size_t>(cause) == c);
  }
  cc(p_trap_from_u_, priv_ == Priv::kUser);
  cc(p_trap_from_s_, priv_ == Priv::kSupervisor);
  cc(p_deleg_, csrs_.medeleg != 0);
  cc(p_deleg_taken_, enter_trap(rec, cause, tval));
  if (cfg_.superscalar) cc(p_b_flush_, true);
}

void RtlCore::write_rd(CommitRecord& rec, std::uint8_t rd, std::uint64_t value) {
  if (rd != 0) {
    if (metrics_ != nullptr) metrics_->observe_write(rd, regs_[rd], value);
    regs_[rd] = value;
  }
  rec.has_rd_write = rd != 0;
  rec.rd = rd;
  rec.rd_value = rd != 0 ? value : 0;
}

void RtlCore::service_interrupts() {
  tick_clint();
  // The pending lines are condition points in their own right; with CLINT
  // stimulus their true bins finally become reachable.
  for (std::size_t i = 0; i < p_irq_pending_.size(); ++i) {
    const std::uint64_t bit = 1ull << (1 + 2 * i);
    cc(p_irq_pending_[i], (csrs_.mie & csrs_.mip & bit) != 0);
  }
  take_interrupt();
}

void RtlCore::evaluate_background_units(const Decoded& d) {
  // Interrupt lines are evaluated every cycle in RTL; nothing in the fuzz
  // harness can assert mip (no CLINT/PLIC stimulus), so the true bins are
  // the realistic unreachable tail.
  for (std::size_t i = 0; i < p_irq_pending_.size(); ++i) {
    const std::uint64_t bit = 1ull << (1 + 2 * i);  // ssip..meip pattern
    cc(p_irq_pending_[i], (csrs_.mie & csrs_.mip & bit) != 0);
  }
  if (cfg_.cross_depth >= 2) {
    cc(p_debug_halt_, false);
    cc(p_debug_step_, false);
    cc(p_ctr_overflow_, csrs_.instret > (1ull << 62));
  }
  if (cfg_.superscalar) {
    const bool short_alu = d.valid() && (is_alu_imm_op(d.op) || is_alu_reg_op(d.op));
    if (cc(p_b_dual_issue_, short_alu && last_was_short_alu_)) {
      // Second op of a fused pair issues for free.
      if (cycles_ > 0) --cycles_;
    }
    cc(p_b_rename_alloc_, d.valid() && d.rd != 0);
    cc(p_b_rob_full_, ev_.dcache_miss && prev_ev_.dcache_miss);
    cc(p_b_wakeup_, d.valid() && (d.rs1 == last_rd_ || d.rs2 == last_rd_) &&
                        last_rd_ != 0);
    for (int bank = 0; bank < 8; ++bank) {
      cc(p_b_rename_bank_[bank], d.valid() && d.rd != 0 && d.rd % 8 == bank);
    }
    for (int q = 0; q < 4; ++q) {
      cc(p_b_rob_window_[q], (steps_ >> 3) % 4 == static_cast<unsigned>(q));
    }
    if (d.valid()) {
      const bool pair = short_alu && last_was_short_alu_;
      std::size_t c = 0;
      cc(p_b_pair_[c++], pair);
      cc(p_b_pair_[c++], last_was_short_alu_ && is_load_op(d.op));
      cc(p_b_pair_[c++], last_was_short_alu_ && is_store_op(d.op));
      cc(p_b_pair_[c++], last_was_short_alu_ && is_branch_op(d.op));
      cc(p_b_pair_[c++], last_was_short_alu_ && riscv::is_muldiv(d.op));
      cc(p_b_pair_[c++], last_was_short_alu_ && is_csr_op(d.op));
    }
    last_was_short_alu_ = short_alu;
  }
}

std::optional<CommitRecord> RtlCore::step() {
  if (stopped_) {
    fold_deferred_chains();
    return std::nullopt;
  }
  if (steps_ >= plat_.max_steps) {
    stop(sim::StopReason::kStepLimit);
    fold_deferred_chains();
    return std::nullopt;
  }

  ev_ = StepEvents{};
  ev_.priv = priv_;

  // ---- Instruction-side MMU ----
  std::uint64_t fetch_pa = pc_;
  if (translation_active()) {
    if (!p_tlb_.empty()) cc(p_tlb_[0], true);  // I-side TLB lookup
    if (const Exception pf = translate_cc(pc_, MemAccess::kFetch, fetch_pa);
        pf != Exception::kNone) {
      // Fetch page fault: nothing was fetched, so the committed record
      // carries instr=0 and the select chains see an invalid decode.
      // Interrupt servicing is skipped this step (mirrored by the golden
      // model).
      ++steps_;
      ++cycles_;
      CommitRecord rec;
      rec.pc = pc_;
      rec.instr = 0;
      rec.priv = priv_;
      cur_op_index_ = riscv::kNumOpcodes;
      if (cfg_.deferred_select_chains) {
        ++chain_steps_;
        ++op_count_[cur_op_index_];
      } else {
        for (std::size_t i = 0; i < p_dec_op_.size(); ++i) {
          cc(p_dec_op_[i], false);
        }
      }
      raise(rec, pf, pc_);
      evaluate_cross_units();
      if (metrics_ != nullptr) {
        cov::StepObservation ob;
        ob.trap = true;
        ob.priv_before = ev_.priv;
        ob.priv_after = priv_;
        metrics_->on_step(ob);
      }
      prev_ev_ = ev_;
      commit(rec, Decoded{}, /*icache_hit=*/false);
      return rec;
    }
  } else if (!p_tlb_.empty()) {
    cc(p_tlb_[0], false);  // MMU consulted, found Bare: passthrough
  }
  if (!mem_.in_ram(fetch_pa, 4)) {
    stop(sim::StopReason::kPcEscape);
    fold_deferred_chains();
    return std::nullopt;
  }

  // ---- Fetch through the I$ (Bug1 site: may serve stale bytes) ----
  CacheAccess iacc;
  const std::uint32_t raw = icache_.fetch(fetch_pa, mem_, iacc);
  ev_.icache_miss = !iacc.hit;
  cc(p_ic_hit_, iacc.hit);
  if (!iacc.hit) {
    cc(p_ic_evict_, iacc.evicted_valid);
    if (!p_ic_set_evict_.empty()) {
      const unsigned set = static_cast<unsigned>(
          (fetch_pa / cfg_.icache_line) % cfg_.icache_sets);
      cc(p_ic_set_evict_[set], iacc.evicted_valid);
    }
    cycles_ += cfg_.miss_penalty;
    if (cfg_.cross_depth >= 2) cc(p_ecc_ic_, false);  // refill ECC check
  }
  cc(p_fetch_cross_, fetch_pa % cfg_.icache_line == cfg_.icache_line - 4);

  if (raw == 0) {
    stop(sim::StopReason::kProgramEnd);
    fold_deferred_chains();
    return std::nullopt;
  }
  ++steps_;
  ++cycles_;
  if (plat_.clint_enabled) service_interrupts();

  CommitRecord rec;
  rec.pc = pc_;
  rec.instr = raw;
  rec.priv = priv_;

  // Decode through the predecode cache: the cached entry is tag-checked
  // against the word the I$ actually served, so this is always equivalent
  // to riscv::decode(raw) — just without the table scan on repeat fetches.
  const Decoded& d = predecode_.lookup(pc_, raw);

  // ---- Decode-stage condition points ----
  cc(p_dec_valid_, d.valid());
  cc(p_dec_load_, d.valid() && is_load_op(d.op));
  cc(p_dec_store_, d.valid() && is_store_op(d.op));
  cc(p_dec_branch_, d.valid() && is_branch_op(d.op));
  cc(p_dec_jal_, d.op == Opcode::kJal);
  cc(p_dec_jalr_, d.op == Opcode::kJalr);
  cc(p_dec_aluimm_, d.valid() && is_alu_imm_op(d.op));
  cc(p_dec_alureg_, d.valid() && is_alu_reg_op(d.op));
  cc(p_dec_wform_, d.valid() && is_wform_op(d.op));
  cc(p_dec_muldiv_, d.valid() && riscv::is_muldiv(d.op));
  cc(p_dec_div_, d.valid() && riscv::is_div(d.op));
  cc(p_dec_amo_, d.valid() && is_amo_op(d.op));
  cc(p_dec_lr_, d.op == Opcode::kLrW || d.op == Opcode::kLrD);
  cc(p_dec_sc_, d.op == Opcode::kScW || d.op == Opcode::kScD);
  cc(p_dec_csr_, d.valid() && is_csr_op(d.op));
  cc(p_dec_fence_, d.op == Opcode::kFence || d.op == Opcode::kFenceI);
  cc(p_dec_system_, d.valid() && riscv::spec(d.op).format == riscv::Format::kSystem);
  cc(p_dec_rd_x0_, d.valid() && d.rd == 0);
  cc(p_dec_rs1_x0_, d.valid() && d.rs1 == 0);
  cur_op_index_ = d.valid() ? static_cast<std::size_t>(d.op)
                            : riscv::kNumOpcodes;
  if (d.valid()) {
    ev_.is_load = is_load_op(d.op);
    ev_.is_store = is_store_op(d.op);
    ev_.is_amo = is_amo_op(d.op);
    ev_.is_lrsc = d.op == Opcode::kLrW || d.op == Opcode::kLrD ||
                  d.op == Opcode::kScW || d.op == Opcode::kScD;
    ev_.is_csr = is_csr_op(d.op);
    ev_.is_muldiv = riscv::is_muldiv(d.op);
    ev_.is_div = riscv::is_div(d.op);
    ev_.is_branch = is_branch_op(d.op);
    ev_.is_fencei = d.op == Opcode::kFenceI;
    ev_.is_jump = d.op == Opcode::kJal || d.op == Opcode::kJalr;
  }
  // Per-opcode select chain (one comparator per table row, as in RTL).
  // Deferred mode histograms the decoded opcode instead of touching every
  // comparator's bin here; fold_deferred_chains() lands the same counts.
  if (cfg_.deferred_select_chains) {
    ++chain_steps_;
    ++op_count_[cur_op_index_];
  } else {
    for (std::size_t i = 0; i < p_dec_op_.size(); ++i) {
      cc(p_dec_op_[i], d.valid() && static_cast<std::size_t>(d.op) == i);
    }
  }

  evaluate_background_units(d);

  execute(d, rec);

  if (rec.exception == Exception::kNone) ++csrs_.instret;

  evaluate_cross_units();

  if (metrics_ != nullptr) {
    cov::StepObservation ob;
    ob.is_load = ev_.is_load;
    ob.is_store = ev_.is_store;
    ob.is_amo = ev_.is_amo;
    ob.is_branch = ev_.is_branch;
    ob.is_jump = ev_.is_jump;
    ob.is_muldiv = ev_.is_muldiv;
    ob.is_div = ev_.is_div;
    ob.is_csr = ev_.is_csr;
    ob.is_fence = d.op == Opcode::kFence || ev_.is_fencei;
    ob.trap = ev_.trap;
    ob.priv_before = ev_.priv;
    ob.priv_after = priv_;
    ob.dcache_access = ev_.dcache_access;
    ob.dcache_hit = ev_.dcache_access && !ev_.dcache_miss;
    ob.dcache_hit_dirty = ev_.dcache_hit_dirty;
    ob.dcache_evict_valid = ev_.dcache_evict_valid;
    ob.dcache_evict_dirty = ev_.dcache_evict_dirty;
    metrics_->on_step(ob);
  }
  prev_ev_ = ev_;
  commit(rec, d, iacc.hit);  // DifuzzRTL control-register coverage + trace
  if (stopped_) fold_deferred_chains();  // wfi retired: the run just ended
  return rec;
}

void RtlCore::execute(const Decoded& d, CommitRecord& rec) {
  const std::uint64_t next_pc = pc_ + 4;
  if (!d.valid()) {
    raise(rec, Exception::kIllegalInstruction, d.raw);
    return;
  }
  const std::uint64_t a = regs_[d.rs1];
  const std::uint64_t b = regs_[d.rs2];

  // Hazard / bypass network conditions.
  cc(p_ex_bypass_rs1_, d.rs1 != 0 && d.rs1 == last_rd_);
  cc(p_ex_bypass_rs2_, d.rs2 != 0 && d.rs2 == last_rd_);
  if (cc(p_ex_load_use_, last_was_load_ && last_rd_ != 0 &&
                             (d.rs1 == last_rd_ || d.rs2 == last_rd_))) {
    ++cycles_;  // one-cycle load-use bubble
  }
  last_was_load_ = is_load_op(d.op) || d.op == Opcode::kLrW || d.op == Opcode::kLrD;
  last_rd_ = 0;  // set below on writeback

  switch (d.op) {
    case Opcode::kLui:
      write_rd(rec, d.rd, static_cast<std::uint64_t>(d.imm));
      break;
    case Opcode::kAuipc:
      write_rd(rec, d.rd, pc_ + static_cast<std::uint64_t>(d.imm));
      break;

    case Opcode::kJal: case Opcode::kJalr: {
      std::uint64_t target;
      if (d.op == Opcode::kJal) {
        target = pc_ + static_cast<std::uint64_t>(d.imm);
      } else {
        target = (a + static_cast<std::uint64_t>(d.imm)) & ~1ull;
      }
      const auto pred = predictor_.predict(pc_);
      cc(p_btb_hit_, pred.btb_hit);
      cc(p_pred_taken_, pred.predict_taken);
      ev_.mispredict = predictor_.update(pc_, true, target);
      if (cc(p_mispredict_, ev_.mispredict)) {
        cycles_ += cfg_.mispredict_penalty;
      }
      ev_.taken = true;
      ev_.taken_backward = target < pc_;
      if (cc(p_ex_target_misaligned_, (target & 3) != 0)) {
        raise(rec, Exception::kInstrAddrMisaligned, target);
        return;
      }
      cc(p_ex_br_backward_, target < pc_);
      write_rd(rec, d.rd, next_pc);
      // Finding3 (trace-only): backward jumps with rd=x0 leak a link-write
      // record into the trace.
      if (cfg_.bugs.x0_link_trace && d.rd == 0 && target < pc_) {
        rec.has_rd_write = true;
        rec.rd = 0;
        rec.rd_value = next_pc;
      }
      last_rd_ = d.rd;
      pc_ = target;
      return;
    }

    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
      bool taken = false;
      switch (d.op) {
        case Opcode::kBeq: taken = a == b; break;
        case Opcode::kBne: taken = a != b; break;
        case Opcode::kBlt: taken = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b); break;
        case Opcode::kBge: taken = static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b); break;
        case Opcode::kBltu: taken = a < b; break;
        default: taken = a >= b; break;
      }
      const std::uint64_t target = pc_ + static_cast<std::uint64_t>(d.imm);
      cc(p_ex_br_taken_, taken);
      cc(p_ex_same_src_, d.rs1 == d.rs2);
      cc(p_ex_br_backward_, taken && target < pc_);
      ev_.taken = taken;
      ev_.taken_backward = taken && target < pc_;
      const auto pred = predictor_.predict(pc_);
      cc(p_btb_hit_, pred.btb_hit);
      cc(p_pred_taken_, pred.predict_taken);
      ev_.mispredict = predictor_.update(pc_, taken, target);
      if (cc(p_mispredict_, ev_.mispredict)) {
        cycles_ += cfg_.mispredict_penalty;
      }
      if (taken) {
        if (cc(p_ex_target_misaligned_, (target & 3) != 0)) {
          raise(rec, Exception::kInstrAddrMisaligned, target);
          return;
        }
        pc_ = target;
        return;
      }
      break;
    }

    case Opcode::kLb: case Opcode::kLh: case Opcode::kLw: case Opcode::kLd:
    case Opcode::kLbu: case Opcode::kLhu: case Opcode::kLwu:
    case Opcode::kSb: case Opcode::kSh: case Opcode::kSw: case Opcode::kSd: {
      const bool is_store = is_store_op(d.op);
      const std::uint64_t addr = a + static_cast<std::uint64_t>(d.imm);
      const unsigned size = mem_size_of(d.op);
      const bool misaligned = addr % size != 0;
      // D-side MMU. The misaligned check is architectural on the *virtual*
      // address; in spec priority it outranks translation, so the walker is
      // only consulted for an aligned access — except under the
      // fault-priority-swap bug, where the LSU asks the MMU first.
      const bool xlate = translation_active();
      std::uint64_t pa = addr;
      Exception pgf = Exception::kNone;
      if (!p_tlb_.empty()) cc(p_tlb_[0], xlate);
      if (xlate && (cfg_.bugs.fault_priority_swap || !misaligned)) {
        pgf = translate_cc(addr,
                           is_store ? MemAccess::kStore : MemAccess::kLoad, pa);
      }
      const bool is_clint = pgf == Exception::kNone && clint_.contains(plat_, pa);
      const bool fault =
          pgf == Exception::kNone && !mem_.in_ram(pa, size) && !is_clint;
      cc(p_mem_store_, is_store);
      cc(p_mem_size8_, size == 8);
      cc(p_mem_misaligned_, misaligned);
      cc(p_mem_fault_, fault);
      if (cfg_.cross_depth >= 2) {
        cc(p_pmp_hit_, false);
        cc(p_pmp_fault_, false);
      }
      if (cfg_.bugs.fault_priority_swap) {
        // Finding1: the core checks the PMA/range fault before alignment,
        // inverting the spec's exception priority when both apply. Page
        // faults arrive from the MMU ahead of the LSU's priority mux.
        if (pgf != Exception::kNone) {
          raise(rec, pgf, addr);
          return;
        }
        if (fault) {
          raise(rec, is_store ? Exception::kStoreAccessFault
                              : Exception::kLoadAccessFault, addr);
          return;
        }
        if (misaligned) {
          raise(rec, is_store ? Exception::kStoreAddrMisaligned
                              : Exception::kLoadAddrMisaligned, addr);
          return;
        }
      } else {
        if (misaligned) {
          raise(rec, is_store ? Exception::kStoreAddrMisaligned
                              : Exception::kLoadAddrMisaligned, addr);
          return;
        }
        if (pgf != Exception::kNone) {
          raise(rec, pgf, addr);
          return;
        }
        if (fault) {
          raise(rec, is_store ? Exception::kStoreAccessFault
                              : Exception::kLoadAccessFault, addr);
          return;
        }
      }
      if (is_clint) {
        // MMIO bypasses the D$ (the CLINT sits on the uncached port).
        if (is_store) {
          const std::uint64_t bits =
              size == 8 ? b : (b & ((1ull << (8 * size)) - 1));
          if (!clint_.write(plat_, pa, size, bits)) {
            raise(rec, Exception::kStoreAccessFault, addr);
            return;
          }
          sync_mip();
          rec.has_mem = true;
          rec.mem_is_store = true;
          rec.mem_addr = addr;
          rec.mem_value = bits;
          rec.mem_size = static_cast<std::uint8_t>(size);
        } else {
          std::uint64_t mmio = 0;
          if (!clint_.read(plat_, pa, size, mmio)) {
            raise(rec, Exception::kLoadAccessFault, addr);
            return;
          }
          rec.has_mem = true;
          rec.mem_is_store = false;
          rec.mem_addr = addr;
          rec.mem_value = mmio;
          rec.mem_size = static_cast<std::uint8_t>(size);
          write_rd(rec, d.rd, d.op == Opcode::kLw ? sext32(mmio) : mmio);
          last_rd_ = d.rd;
        }
        break;
      }
      const CacheAccess dacc = dcache_.access(pa, is_store);
      cc(p_dc_hit_, dacc.hit);
      ev_.dcache_miss = !dacc.hit;
      ev_.dcache_hit_dirty = dacc.hit_dirty;
      ev_.dcache_access = true;
      ev_.dcache_evict_valid = dacc.evicted_valid;
      ev_.dcache_evict_dirty = dacc.evicted_dirty;
      ev_.has_mem_addr = true;
      ev_.mem_addr = addr;
      if (!dacc.hit) {
        cc(p_dc_evict_valid_, dacc.evicted_valid);
        cc(p_dc_evict_dirty_, dacc.evicted_dirty);
        if (!p_dc_set_evict_.empty()) {
          const unsigned set = static_cast<unsigned>(
              (pa / cfg_.dcache_line) % cfg_.dcache_sets);
          cc(p_dc_set_evict_[set], dacc.evicted_valid);
        }
        cycles_ += cfg_.miss_penalty;
        if (cfg_.cross_depth >= 2) cc(p_ecc_dc_, false);
      }
      if (is_store) {
        if (reservation_ &&
            (*reservation_ / cfg_.dcache_line) == (pa / cfg_.dcache_line)) {
          ev_.store_hits_reservation = true;
        }
        const std::uint64_t bits =
            size == 8 ? b : (b & ((1ull << (8 * size)) - 1));
        mem_.write(pa, bits, size);
        predecode_.invalidate(pa, size);
        if (!cfg_.bugs.stale_icache) icache_.invalidate_addr(pa);
        rec.has_mem = true;
        rec.mem_is_store = true;
        rec.mem_addr = addr;
        rec.mem_value = bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
      } else {
        const std::uint64_t bits = mem_.read(pa, size);
        std::uint64_t value = bits;
        switch (d.op) {
          case Opcode::kLb: value = static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int8_t>(bits))); break;
          case Opcode::kLh: value = static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int16_t>(bits))); break;
          case Opcode::kLw: value = sext32(bits); break;
          default: break;
        }
        rec.has_mem = true;
        rec.mem_is_store = false;
        rec.mem_addr = addr;
        rec.mem_value = bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
        write_rd(rec, d.rd, value);
        last_rd_ = d.rd;
      }
      break;
    }

    case Opcode::kFence:
      break;
    case Opcode::kFenceI:
      cc(p_fencei_flush_, true);
      icache_.flush();
      predecode_.flush();
      cycles_ += cfg_.miss_penalty / 2;
      break;

    case Opcode::kEcall:
      raise(rec,
            priv_ == Priv::kMachine ? Exception::kEcallFromM
            : priv_ == Priv::kSupervisor ? Exception::kEcallFromS
                                         : Exception::kEcallFromU,
            0);
      return;
    case Opcode::kEbreak:
      raise(rec, Exception::kBreakpoint, pc_);
      return;
    case Opcode::kWfi:
      if (priv_ == Priv::kUser) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      cc(p_wfi_, true);
      cc(p_mret_, false);
      cc(p_sret_, false);
      cc(p_sfence_, false);
      stop(sim::StopReason::kWfi);
      break;

    case Opcode::kSfenceVma:
      if (priv_ == Priv::kUser) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      cc(p_sfence_, true);
      // The selective rs1/rs2 forms flush everything too, matching the
      // golden model's over-approximation bit for bit.
      flush_tlb();
      cycles_ += cfg_.mispredict_penalty;  // fetch replays after the fence
      break;

    case Opcode::kMret: {
      namespace ms = sim::mstatus;
      if (priv_ != Priv::kMachine) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      cc(p_mret_, true);
      cc(p_wfi_, false);
      cc(p_sret_, false);
      const auto mpp = static_cast<Priv>(
          (csrs_.mstatus & ms::kMppMask) >> ms::kMppShift);
      cc(p_mret_to_u_, mpp == Priv::kUser);
      cc(p_mret_to_s_, mpp == Priv::kSupervisor);
      const bool mpie = (csrs_.mstatus & ms::kMpie) != 0;
      csrs_.mstatus &= ~(ms::kMie | ms::kMpie | ms::kMppMask);
      if (mpie) csrs_.mstatus |= ms::kMie;
      csrs_.mstatus |= ms::kMpie;
      priv_ = mpp;
      pc_ = csrs_.mepc;
      cycles_ += cfg_.mispredict_penalty;
      return;
    }
    case Opcode::kSret: {
      namespace ms = sim::mstatus;
      if (priv_ == Priv::kUser) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      cc(p_sret_, true);
      cc(p_wfi_, false);
      cc(p_mret_, false);
      const bool spp = (csrs_.mstatus & ms::kSpp) != 0;
      cc(p_sret_to_u_, !spp);
      const bool spie = (csrs_.mstatus & ms::kSpie) != 0;
      csrs_.mstatus &= ~(ms::kSie | ms::kSpie | ms::kSpp);
      if (spie) csrs_.mstatus |= ms::kSie;
      csrs_.mstatus |= ms::kSpie;
      priv_ = spp ? Priv::kSupervisor : Priv::kUser;
      pc_ = csrs_.sepc;
      cycles_ += cfg_.mispredict_penalty;
      return;
    }

    case Opcode::kCsrrw: case Opcode::kCsrrs: case Opcode::kCsrrc:
    case Opcode::kCsrrwi: case Opcode::kCsrrsi: case Opcode::kCsrrci: {
      namespace c = riscv::csr;
      const bool imm_form = d.op == Opcode::kCsrrwi ||
                            d.op == Opcode::kCsrrsi || d.op == Opcode::kCsrrci;
      const std::uint64_t operand = imm_form ? d.rs1 : a;
      const bool is_write_op = d.op == Opcode::kCsrrw || d.op == Opcode::kCsrrwi;
      const bool do_write = is_write_op || d.rs1 != 0;
      cc(p_csr_machine_, c::min_priv(d.csr) == Priv::kMachine);
      cc(p_csr_super_, c::min_priv(d.csr) == Priv::kSupervisor);
      cc(p_csr_counter_, d.csr == c::kCycle || d.csr == c::kTime ||
                             d.csr == c::kInstret || d.csr == c::kMcycle ||
                             d.csr == c::kMinstret);
      cc(p_csr_satp_, d.csr == c::kSatp);
      const bool priv_fail =
          static_cast<int>(priv_) < static_cast<int>(c::min_priv(d.csr));
      cc(p_csr_priv_fail_, priv_fail);
      cc(p_csr_ro_write_, do_write && c::is_read_only(d.csr));
      std::uint64_t old = 0;
      if (!csr_read(d.csr, old, priv_)) {
        cc(p_csr_illegal_addr_, true);
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      cc(p_csr_illegal_addr_, false);
      if (cc(p_csr_write_side_, do_write)) {
        std::uint64_t next = operand;
        if (d.op == Opcode::kCsrrs || d.op == Opcode::kCsrrsi) next = old | operand;
        if (d.op == Opcode::kCsrrc || d.op == Opcode::kCsrrci) next = old & ~operand;
        if (!csr_write(d.csr, next)) {
          raise(rec, Exception::kIllegalInstruction, d.raw);
          return;
        }
        ev_.csr_write = true;
        ev_.csr_addr = d.csr;
      }
      write_rd(rec, d.rd, old);
      last_rd_ = d.rd;
      break;
    }

    case Opcode::kLrW: case Opcode::kLrD: {
      const unsigned size = d.op == Opcode::kLrW ? 4 : 8;
      const bool misaligned = a % size != 0;
      const bool xlate = translation_active();
      std::uint64_t pa = a;
      Exception pgf = Exception::kNone;
      if (!p_tlb_.empty()) cc(p_tlb_[0], xlate);
      if (xlate && (cfg_.bugs.fault_priority_swap || !misaligned)) {
        pgf = translate_cc(a, MemAccess::kLoad, pa);
      }
      const bool fault = pgf == Exception::kNone && !mem_.in_ram(pa, size);
      cc(p_mem_misaligned_, misaligned);
      cc(p_mem_fault_, fault);
      if (misaligned || fault || pgf != Exception::kNone) {
        if (cfg_.bugs.fault_priority_swap) {
          raise(rec, pgf != Exception::kNone ? pgf
                     : fault                 ? Exception::kLoadAccessFault
                                             : Exception::kLoadAddrMisaligned,
                a);
        } else {
          raise(rec, misaligned              ? Exception::kLoadAddrMisaligned
                     : pgf != Exception::kNone ? pgf
                                               : Exception::kLoadAccessFault,
                a);
        }
        return;
      }
      const CacheAccess dacc = dcache_.access(pa, false);
      cc(p_dc_hit_, dacc.hit);
      ev_.dcache_miss = !dacc.hit;
      ev_.has_mem_addr = true;
      ev_.mem_addr = a;
      if (!dacc.hit) cycles_ += cfg_.miss_penalty;
      const std::uint64_t bits = mem_.read(pa, size);
      // The reservation is held on the physical address.
      reservation_ = pa;
      cc(p_mem_resv_valid_, true);
      rec.has_mem = true;
      rec.mem_is_store = false;
      rec.mem_addr = a;
      rec.mem_value = bits;
      rec.mem_size = static_cast<std::uint8_t>(size);
      write_rd(rec, d.rd, size == 4 ? sext32(bits) : bits);
      last_rd_ = d.rd;
      break;
    }
    case Opcode::kScW: case Opcode::kScD: {
      const unsigned size = d.op == Opcode::kScW ? 4 : 8;
      const bool misaligned = a % size != 0;
      const bool xlate = translation_active();
      std::uint64_t pa = a;
      Exception pgf = Exception::kNone;
      if (!p_tlb_.empty()) cc(p_tlb_[0], xlate);
      if (xlate && (cfg_.bugs.fault_priority_swap || !misaligned)) {
        pgf = translate_cc(a, MemAccess::kStore, pa);
      }
      const bool fault = pgf == Exception::kNone && !mem_.in_ram(pa, size);
      cc(p_mem_misaligned_, misaligned);
      cc(p_mem_fault_, fault);
      if (misaligned || fault || pgf != Exception::kNone) {
        if (cfg_.bugs.fault_priority_swap) {
          raise(rec, pgf != Exception::kNone ? pgf
                     : fault                 ? Exception::kStoreAccessFault
                                             : Exception::kStoreAddrMisaligned,
                a);
        } else {
          raise(rec, misaligned              ? Exception::kStoreAddrMisaligned
                     : pgf != Exception::kNone ? pgf
                                               : Exception::kStoreAccessFault,
                a);
        }
        return;
      }
      const bool ok = reservation_ && *reservation_ == pa;
      ev_.sc_success = ok;
      cc(p_mem_sc_ok_, ok);
      cc(p_mem_resv_valid_, reservation_.has_value());
      if (ok) {
        const CacheAccess dacc = dcache_.access(pa, true);
        cc(p_dc_hit_, dacc.hit);
        ev_.dcache_miss = !dacc.hit;
        ev_.has_mem_addr = true;
        ev_.mem_addr = a;
        if (!dacc.hit) cycles_ += cfg_.miss_penalty;
        const std::uint64_t bits = size == 8 ? b : (b & 0xffffffffull);
        mem_.write(pa, bits, size);
        predecode_.invalidate(pa, size);
        if (!cfg_.bugs.stale_icache) icache_.invalidate_addr(pa);
        rec.has_mem = true;
        rec.mem_is_store = true;
        rec.mem_addr = a;
        rec.mem_value = bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
        write_rd(rec, d.rd, 0);
      } else {
        write_rd(rec, d.rd, 1);
      }
      reservation_.reset();
      last_rd_ = d.rd;
      break;
    }

    default: {
      if (is_amo_op(d.op)) {
        const unsigned size =
            (riscv::spec(d.op).match & 0x7000u) == 0x2000u ? 4 : 8;
        const bool misaligned = a % size != 0;
        const bool xlate = translation_active();
        std::uint64_t pa = a;
        Exception pgf = Exception::kNone;
        if (!p_tlb_.empty()) cc(p_tlb_[0], xlate);
        if (xlate && (cfg_.bugs.fault_priority_swap || !misaligned)) {
          // AMOs translate as stores: the read-modify-write needs W (+D).
          pgf = translate_cc(a, MemAccess::kStore, pa);
        }
        const bool fault = pgf == Exception::kNone && !mem_.in_ram(pa, size);
        cc(p_mem_misaligned_, misaligned);
        cc(p_mem_fault_, fault);
        if (misaligned || fault || pgf != Exception::kNone) {
          if (cfg_.bugs.fault_priority_swap) {
            raise(rec,
                  pgf != Exception::kNone ? pgf
                  : fault                 ? Exception::kStoreAccessFault
                                          : Exception::kStoreAddrMisaligned,
                  a);
          } else {
            raise(rec,
                  misaligned                ? Exception::kStoreAddrMisaligned
                  : pgf != Exception::kNone ? pgf
                                            : Exception::kStoreAccessFault,
                  a);
          }
          return;
        }
        const CacheAccess dacc = dcache_.access(pa, true);
        cc(p_dc_hit_, dacc.hit);
        ev_.dcache_miss = !dacc.hit;
        ev_.dcache_hit_dirty = dacc.hit_dirty;
        ev_.has_mem_addr = true;
        ev_.mem_addr = a;
        if (!dacc.hit) cycles_ += cfg_.miss_penalty;
        const std::uint64_t old_bits = mem_.read(pa, size);
        const std::uint64_t old_val = size == 4 ? sext32(old_bits) : old_bits;
        const std::uint64_t src = size == 4 ? sext32(b) : b;
        std::uint64_t result = 0;
        bool is_minmax = false, is_logic = false;
        switch (d.op) {
          case Opcode::kAmoSwapW: case Opcode::kAmoSwapD: result = src; break;
          case Opcode::kAmoAddW: case Opcode::kAmoAddD: result = old_val + src; break;
          case Opcode::kAmoXorW: case Opcode::kAmoXorD: result = old_val ^ src; is_logic = true; break;
          case Opcode::kAmoAndW: case Opcode::kAmoAndD: result = old_val & src; is_logic = true; break;
          case Opcode::kAmoOrW: case Opcode::kAmoOrD: result = old_val | src; is_logic = true; break;
          case Opcode::kAmoMinW: case Opcode::kAmoMinD:
            result = static_cast<std::int64_t>(old_val) < static_cast<std::int64_t>(src) ? old_val : src;
            is_minmax = true;
            break;
          case Opcode::kAmoMaxW: case Opcode::kAmoMaxD:
            result = static_cast<std::int64_t>(old_val) > static_cast<std::int64_t>(src) ? old_val : src;
            is_minmax = true;
            break;
          case Opcode::kAmoMinuW:
            result = static_cast<std::uint32_t>(old_bits) < static_cast<std::uint32_t>(b) ? old_bits : b;
            is_minmax = true;
            break;
          case Opcode::kAmoMinuD: result = old_bits < b ? old_bits : b; is_minmax = true; break;
          case Opcode::kAmoMaxuW:
            result = static_cast<std::uint32_t>(old_bits) > static_cast<std::uint32_t>(b) ? old_bits : b;
            is_minmax = true;
            break;
          case Opcode::kAmoMaxuD: result = old_bits > b ? old_bits : b; is_minmax = true; break;
          default: break;
        }
        cc(p_mem_amo_min_, is_minmax);
        cc(p_mem_amo_logic_, is_logic);
        const std::uint64_t store_bits =
            size == 8 ? result : (result & 0xffffffffull);
        mem_.write(pa, store_bits, size);
        predecode_.invalidate(pa, size);
        if (!cfg_.bugs.stale_icache) icache_.invalidate_addr(pa);
        rec.has_mem = true;
        rec.mem_is_store = true;
        rec.mem_addr = a;
        rec.mem_value = store_bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
        write_rd(rec, d.rd, old_val);
        last_rd_ = d.rd;
        // Finding2 (trace-only): rd=x0 AMOs appear to load into x0.
        if (cfg_.bugs.amo_x0_trace && d.rd == 0) {
          rec.has_rd_write = true;
          rec.rd = 0;
          rec.rd_value = old_val;
        }
        break;
      }

      // ---- ALU / M-extension ops (shared arithmetic table) ----
      const bool imm_form = is_alu_imm_op(d.op);
      const std::uint64_t operand_b =
          imm_form ? static_cast<std::uint64_t>(d.imm) : b;
      const std::uint64_t result = riscv::alu_eval(d.op, a, operand_b);
      if (riscv::is_muldiv(d.op)) {
        cc(p_md_busy_, riscv::is_div(d.op));
        if (riscv::is_div(d.op)) cycles_ += cfg_.div_latency;
        cc(p_md_div0_, operand_b == 0 || (is_wform_op(d.op) &&
                                          static_cast<std::uint32_t>(operand_b) == 0));
        cc(p_md_overflow_,
           (d.op == Opcode::kDiv || d.op == Opcode::kRem)
               ? (static_cast<std::int64_t>(a) == INT64_MIN &&
                  static_cast<std::int64_t>(operand_b) == -1)
               : (d.op == Opcode::kDivw || d.op == Opcode::kRemw) &&
                     static_cast<std::int32_t>(a) == INT32_MIN &&
                     static_cast<std::int32_t>(operand_b) == -1);
        cc(p_md_sign_mix_, (static_cast<std::int64_t>(a) < 0) !=
                               (static_cast<std::int64_t>(operand_b) < 0));
        cc(p_md_word_, is_wform_op(d.op));
        cc(p_md_high_, d.op == Opcode::kMulh || d.op == Opcode::kMulhsu ||
                           d.op == Opcode::kMulhu);
        if (!p_md_cross_.empty()) {
          const bool div0 =
              operand_b == 0 ||
              (is_wform_op(d.op) && static_cast<std::uint32_t>(operand_b) == 0);
          const bool overflow =
              (d.op == Opcode::kDiv || d.op == Opcode::kRem)
                  ? (static_cast<std::int64_t>(a) == INT64_MIN &&
                     static_cast<std::int64_t>(operand_b) == -1)
                  : (d.op == Opcode::kDivw || d.op == Opcode::kRemw) &&
                        static_cast<std::int32_t>(a) == INT32_MIN &&
                        static_cast<std::int32_t>(operand_b) == -1;
          const bool high = d.op == Opcode::kMulh || d.op == Opcode::kMulhsu ||
                            d.op == Opcode::kMulhu;
          const bool sign_mix = (static_cast<std::int64_t>(a) < 0) !=
                                (static_cast<std::int64_t>(operand_b) < 0);
          std::size_t m = 0;
          cc(p_md_cross_[m++], div0 && is_wform_op(d.op));
          cc(p_md_cross_[m++], overflow && (d.op == Opcode::kRem ||
                                            d.op == Opcode::kRemw));
          cc(p_md_cross_[m++], high && sign_mix);
          if (cfg_.cross_depth >= 2) {
            cc(p_md_cross_[m++], riscv::is_div(d.op) && a == operand_b);
            cc(p_md_cross_[m++], !riscv::is_div(d.op) && result == 0);
            cc(p_md_cross_[m++], riscv::is_div(d.op) && prev_ev_.is_load);
          }
        }
      } else {
        cc(p_ex_res_zero_, result == 0);
        cc(p_ex_res_neg_, static_cast<std::int64_t>(result) < 0);
        cc(p_ex_same_src_, !imm_form && d.rs1 == d.rs2);
        if (riscv::spec(d.op).format == riscv::Format::kIShift64 ||
            riscv::spec(d.op).format == riscv::Format::kIShift32) {
          cc(p_ex_shamt_zero_, d.imm == 0);
        }
      }
      write_rd(rec, d.rd, result);
      last_rd_ = d.rd;
      // Bug2 (CWE-440): the tracer drops MUL/DIV writeback records.
      if (cfg_.bugs.tracer_drops_muldiv && riscv::is_muldiv(d.op)) {
        rec.has_rd_write = false;
      }
      break;
    }
  }
  pc_ = next_pc;
}

}  // namespace chatfuzz::rtl
