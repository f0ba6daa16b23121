// Machine-language training corpus (paper §III-A): the paper statically
// harvests ~500K function-granular test vectors from a compiled Linux
// kernel. Offline we synthesize the equivalent: a generator that emits
// function-shaped RV64 machine code with realistic register def-use chains,
// control flow, stack traffic, and rare-instruction frequencies. What the LM
// must learn — valid encodings arranged in *interdependent* sequences — is
// preserved (see README, "What stands in for the paper's setup").
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"

namespace chatfuzz::corpus {

using Program = std::vector<std::uint32_t>;

struct CorpusConfig {
  unsigned min_instrs = 10;
  unsigned max_instrs = 26;
  // Idiom mix (relative weights).
  double w_alu_chain = 4.0;
  double w_load_compute_store = 3.0;
  double w_if_else = 2.0;
  double w_loop = 1.5;
  double w_muldiv = 1.2;
  double w_csr = 0.8;
  double w_amo = 0.7;
  double w_lrsc = 0.5;
  double w_fence = 0.4;
  double w_priv = 1.2;   // mstatus dance + mret/sret (privilege transitions)
  /// CLINT interrupt-arming idiom (mtimecmp/msip stores + mie/mstatus
  /// enables). Zero by default: the paper's harness has no interrupt
  /// stimulus; campaigns with Platform::clint_enabled raise this.
  double w_irq = 0.0;
  /// Sv39 bring-up idiom (identity-map a gigapage, install satp, optionally
  /// delegate page faults, drop to S/U). Everything after it in the function
  /// runs translated, so one occurrence flips the rest of the sample into
  /// the privileged/VM fuzzing surface.
  double w_vm = 0.6;
  /// Memory-ordering stress kernels (store-forward, pair-alias,
  /// pointer-chase, speculative wrong-path store): div-fed stores with
  /// dependent or overlapping loads. On an out-of-order LSU these force
  /// store-to-load forwarding, partial-overlap merges and load-behind-store
  /// scheduling (the ooo.lsu.* / ooo.squash.* points); on the in-order core
  /// they are ordinary RAW memory idioms.
  double w_lsu = 2.5;
  std::uint64_t clint_base = 0x0200'0000ull;
  /// Physical RAM window the VM idiom identity-maps; the root page table
  /// lives at ram_base + pt_offset (the page just above the data region).
  std::uint64_t ram_base = 0x8000'0000ull;
  std::uint64_t pt_offset = 0xff000ull;
  bool with_prologue = true;
};

/// Generates function-granular machine-code samples. Deterministic under a
/// fixed seed.
class CorpusGenerator {
 public:
  explicit CorpusGenerator(CorpusConfig cfg = {}, std::uint64_t seed = 42)
      : cfg_(cfg), rng_(seed) {}

  /// One function-shaped sample (prologue, idiom body, epilogue).
  Program function();

  /// A dataset of n samples.
  std::vector<Program> dataset(std::size_t n);

  /// A prompt for RL rollouts: `k` instructions from the *body* of a fresh
  /// sample (the paper seeds each rollout with 2-5 instructions of a dataset
  /// item; skipping the fixed prologue keeps prompts diverse).
  Program prompt(unsigned k);

  /// Snapshot / restore the stream position (RNG + def-use tracking), so a
  /// restored generator emits the exact samples the saved one would have.
  void save_state(ser::Writer& w) const;
  bool restore_state(ser::Reader& r);

 private:
  // Idiom emitters append to `out` and update the def-use state.
  void emit_alu_chain(Program& out);
  void emit_load_compute_store(Program& out);
  void emit_if_else(Program& out);
  void emit_loop(Program& out);
  void emit_muldiv(Program& out);
  void emit_csr(Program& out);
  void emit_amo(Program& out);
  void emit_lrsc(Program& out);
  void emit_fence(Program& out);
  void emit_priv(Program& out);
  void emit_irq(Program& out);
  void emit_vm(Program& out);
  void emit_lsu(Program& out);

  /// A register recently written (for operand entanglement), or a random
  /// caller-saved register when none is tracked.
  unsigned recent_reg();
  /// A register holding a RAM pointer (even registers at platform reset).
  unsigned pointer_reg();
  /// Pick a destination and remember it as recently defined.
  unsigned def_reg();

  CorpusConfig cfg_;
  Rng rng_;
  std::vector<unsigned> recent_;
};

/// Unstructured baseline seed generator (TheHuzz-style): uniformly random
/// *valid* instructions with random operand fields — syntactically legal but
/// with no data/control-flow entanglement.
Program random_valid_program(Rng& rng, unsigned num_instrs);

}  // namespace chatfuzz::corpus
