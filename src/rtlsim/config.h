// DUT model configuration: microarchitectural parameters for the
// RocketCore-class and BOOM-class cores, plus the switchable bug injections
// that reproduce the paper's findings (§V-B). Injections default ON (the
// paper's DUTs really behaved this way); lockstep tests switch them off.
#pragma once

#include <string>

namespace chatfuzz::rtl {

/// The deviations ChatFuzz found in RocketCore, reproduced as switchable
/// behaviours of the model, plus hypothetical privileged and out-of-order
/// defects for validating the harness. Each group names the code that reads
/// its flags: the first five only the in-order RtlCore::execute; the three
/// privileged ones the trap/CSR/MMU unit both backends share (DutCore,
/// dut.cpp); the ooo_* ones only OooCore's pipeline.
struct BugInjections {
  // In-order core only (RtlCore::execute).
  /// Bug1 (CWE-1202): I$ serves stale instructions after stores to fetched
  /// lines until FENCE.I; the golden model is always coherent.
  bool stale_icache = true;
  /// Bug2 (CWE-440): tracer omits the rd-writeback record of MUL/DIV ops.
  bool tracer_drops_muldiv = true;
  /// Finding1: when a load/store is both misaligned and out-of-range the
  /// core reports access-fault; the spec (and golden model) say misaligned.
  bool fault_priority_swap = true;
  /// Finding2: AMO with rd=x0 shows x0 receiving the loaded value in the
  /// trace (architectural state is unaffected).
  bool amo_x0_trace = true;
  /// Finding3: trace records a write to x0 for backward jumps with rd=x0
  /// (trace-only artifact).
  bool x0_link_trace = true;

  // Privileged/Sv39 bug surface, read by the shared trap/CSR/MMU unit
  // (DutCore), so each means the same on the in-order and the out-of-order
  // backend. These default OFF: they model hypothetical trap/translation
  // defects used to validate that the differential harness *would* catch
  // them, not paper findings.
  /// Trap unit ignores medeleg: delegated causes still vector to M-mode.
  /// Surfaces as S-CSR state divergence after a trap taken below M.
  /// Read by DutCore::enter_trap.
  bool wrong_delegation = false;
  /// MMU skips the PTE W/D permission checks on stores: writes to read-only
  /// or non-dirty pages succeed instead of raising store-page-fault. Read by
  /// DutCore::leaf_permissions.
  bool skip_perm_check = false;
  /// TLB is flushed on sfence.vma only, not on satp writes — stale leaf
  /// PTEs survive a translation-context switch. Read by DutCore::csr_write.
  bool stale_tlb = false;

  // Out-of-order backend bug surface (the memory-ordering defect classes
  // TheHuzz/DifuzzRTL flag as the richest source of silicon escapes). Only
  // OooCore's LSU and squash logic read these; the in-order core ignores
  // them, and the `ooo` preset switches them on the way the paper's DUTs
  // really carried their findings.
  /// LSU store-to-load forwarding is broken: a load whose bytes should be
  /// forwarded from an older in-flight store reads stale memory instead.
  bool ooo_broken_fwd = false;
  /// Store queue drains speculative stores to memory at execute instead of
  /// at commit — a squashed store leaves its bytes behind.
  bool ooo_early_store_drain = false;
  /// Branch squash does not cancel in-flight (issued, not yet completed)
  /// loads: a wrong-path load completes after the squash and writes a
  /// physical register that may already be re-allocated.
  bool ooo_missing_squash = false;

  static BugInjections none() { return off_all(); }

 private:
  static BugInjections off_all() {
    BugInjections b;
    b.stale_icache = false;
    b.tracer_drops_muldiv = false;
    b.fault_priority_swap = false;
    b.amo_x0_trace = false;
    b.x0_link_trace = false;
    return b;  // every other flag already defaults to false
  }
};

struct CoreConfig {
  std::string name = "rocket";

  // Cache geometry (sets x ways x line-bytes). The I$ is small enough that
  // long structured tests can conflict within it.
  unsigned icache_sets = 8;
  unsigned icache_ways = 2;
  unsigned icache_line = 32;
  unsigned dcache_sets = 16;
  unsigned dcache_ways = 2;
  unsigned dcache_line = 32;

  // Front-end.
  unsigned btb_entries = 16;

  // Timing (cycles).
  unsigned miss_penalty = 20;
  unsigned div_latency = 16;
  unsigned mispredict_penalty = 3;

  /// BOOM-class: dual-issue out-of-order front end; adds rename/ROB
  /// condition points and removes most of the unreachable tail (the BOOM
  /// build in the paper saturates near 97%).
  bool superscalar = false;

  /// Depth of cross/sequence condition instrumentation. 2 = full (RocketCore
  /// build: deep privilege/sequence/cache crosses dominate the uncovered
  /// tail, as in the paper where 24h campaigns plateau near 80%); 1 =
  /// reduced (BOOM build: the instrumented subset saturates near 97%).
  unsigned cross_depth = 2;

  /// Defer the opcode-indexed comparator chains (decode.sel.* and
  /// cross.{user,super}.op.*) to per-run histograms instead of evaluating
  /// every comparator on every instruction. Exactly one comparator of a
  /// chain is true per instruction, so the per-test hit counts and
  /// stand-alone bins fold from an opcode histogram bit-identically — the
  /// chains are the instrumentation-layout-proportional share of the
  /// per-instruction cost, and deferring them is most of the campaign
  /// hot-path speedup. Counters land in the CoverageDB when the run stops
  /// (or at reset), not per instruction; switch off for strict
  /// per-instruction accounting. Its only user is sparse_cov_test, which
  /// keeps the eager chains as the reference the deferred ones must match.
  bool deferred_select_chains = true;

  /// Select the out-of-order backend (OooCore): 2-wide superscalar with
  /// register renaming, a reorder buffer, an LSU with a store queue +
  /// store-to-load forwarding, and branch speculation with
  /// squash-on-mispredict. The remaining fields size its structures.
  bool out_of_order = false;
  unsigned rob_size = 32;    // reorder-buffer entries
  unsigned phys_regs = 64;   // physical register file (>= 33)
  unsigned sq_size = 8;      // store-queue entries
  unsigned fetch_width = 2;  // fetch/rename/commit width per cycle

  BugInjections bugs;

  /// RocketCore-class preset (the paper's primary DUT).
  static CoreConfig rocket() { return CoreConfig{}; }

  /// Out-of-order preset (the second DUT backend). Like the rocket preset's
  /// five paper findings, the three memory-ordering injections ship enabled:
  /// this DUT "really behaves this way", and multi-DUT campaigns surface the
  /// resulting mismatches; lockstep tests switch them off.
  static CoreConfig ooo() {
    CoreConfig c;
    c.name = "ooo";
    c.out_of_order = true;
    c.dcache_sets = 32;
    c.dcache_ways = 4;
    c.btb_entries = 32;
    c.bugs = BugInjections::none();
    c.bugs.ooo_broken_fwd = true;
    c.bugs.ooo_early_store_drain = true;
    c.bugs.ooo_missing_squash = true;
    return c;
  }

  /// BOOM-class preset.
  static CoreConfig boom() {
    CoreConfig c;
    c.name = "boom";
    c.icache_sets = 32;
    c.icache_ways = 4;
    c.dcache_sets = 32;
    c.dcache_ways = 4;
    c.btb_entries = 32;
    c.div_latency = 12;
    c.superscalar = true;
    c.cross_depth = 1;
    return c;
  }
};

}  // namespace chatfuzz::rtl
