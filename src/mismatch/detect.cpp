#include "mismatch/detect.h"

#include <algorithm>

#include "riscv/alu.h"
#include "riscv/csr.h"
#include "riscv/decode.h"

namespace chatfuzz::mismatch {

using riscv::Opcode;

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kStaleInstr: return "stale-instr";
    case Kind::kPcDivergence: return "pc-divergence";
    case Kind::kRdPresence: return "rd-presence";
    case Kind::kRdValue: return "rd-value";
    case Kind::kMemPresence: return "mem-presence";
    case Kind::kMemValue: return "mem-value";
    case Kind::kException: return "exception";
    case Kind::kLength: return "trace-length";
  }
  return "unknown";
}

const char* finding_name(Finding f) {
  switch (f) {
    case Finding::kBug1CacheCoherency: return "Bug1 cache-coherency (CWE-1202)";
    case Finding::kBug2TracerMulDiv: return "Bug2 tracer drops mul/div wb (CWE-440)";
    case Finding::kF1ExceptionPriority: return "Finding1 exception-priority";
    case Finding::kF2AmoIntoX0: return "Finding2 AMO rd=x0 trace";
    case Finding::kF3X0TraceWrite: return "Finding3 x0 trace write";
    case Finding::kOther: return "unclassified";
  }
  return "unknown";
}

namespace {
bool is_amo_instr(Opcode op) {
  const auto& s = riscv::spec(op);
  return s.ext == riscv::Ext::kA && s.format == riscv::Format::kAmo &&
         op != Opcode::kScW && op != Opcode::kScD;
}
bool is_jump_instr(Opcode op) {
  return op == Opcode::kJal || op == Opcode::kJalr;
}
bool is_misaligned_exc(riscv::Exception e) {
  return e == riscv::Exception::kLoadAddrMisaligned ||
         e == riscv::Exception::kStoreAddrMisaligned;
}
bool is_access_fault_exc(riscv::Exception e) {
  return e == riscv::Exception::kLoadAccessFault ||
         e == riscv::Exception::kStoreAccessFault;
}
}  // namespace

Finding classify(const Mismatch& m) {
  const riscv::Decoded d = riscv::decode(m.golden.instr);
  switch (m.kind) {
    case Kind::kStaleInstr:
      return Finding::kBug1CacheCoherency;
    case Kind::kRdPresence:
      if (!m.dut.has_rd_write && m.golden.has_rd_write && d.valid() &&
          riscv::is_muldiv(d.op)) {
        return Finding::kBug2TracerMulDiv;
      }
      if (m.dut.has_rd_write && m.dut.rd == 0 && d.valid()) {
        if (is_amo_instr(d.op)) return Finding::kF2AmoIntoX0;
        if (is_jump_instr(d.op)) return Finding::kF3X0TraceWrite;
      }
      return Finding::kOther;
    case Kind::kException:
      if (is_access_fault_exc(m.dut.exception) &&
          is_misaligned_exc(m.golden.exception)) {
        return Finding::kF1ExceptionPriority;
      }
      return Finding::kOther;
    default:
      return Finding::kOther;
  }
}

std::string signature_of(const Mismatch& m) {
  const riscv::Decoded d = riscv::decode(m.golden.instr);
  std::string sig = kind_name(m.kind);
  sig += ':';
  sig += d.valid() ? std::string(riscv::mnemonic(d.op)) : "invalid";
  switch (m.kind) {
    case Kind::kException:
      sig += std::string(":dut=") + riscv::exception_name(m.dut.exception) +
             ":gold=" + riscv::exception_name(m.golden.exception);
      break;
    case Kind::kRdPresence:
      sig += m.dut.has_rd_write ? ":dut-extra" : ":dut-missing";
      if ((m.dut.has_rd_write && m.dut.rd == 0) ||
          (m.golden.has_rd_write && m.golden.rd == 0)) {
        sig += ":x0";
      }
      break;
    case Kind::kRdValue:
      if (d.valid() && riscv::spec(d.op).ext == riscv::Ext::kZicsr) {
        char buf[16];
        std::snprintf(buf, sizeof buf, ":csr%03x", d.csr);
        sig += buf;
      }
      break;
    case Kind::kMemPresence:
      sig += m.dut.has_mem ? ":dut-extra" : ":dut-missing";
      break;
    default:
      break;
  }
  if (m.dut_index != 0) {
    // Multi-DUT campaigns: the same root cause on a different backend is a
    // different bug, so the backend ordinal is part of the dedup key. The
    // primary DUT keeps the historical signatures unchanged.
    sig += ":dut" + std::to_string(m.dut_index);
  }
  return sig;
}

FilterRule counter_csr_filter() {
  return [](const Mismatch& m) {
    if (m.kind != Kind::kRdValue) return false;
    const riscv::Decoded d = riscv::decode(m.golden.instr);
    if (!d.valid() || riscv::spec(d.op).ext != riscv::Ext::kZicsr) return false;
    namespace c = riscv::csr;
    return d.csr == c::kCycle || d.csr == c::kTime || d.csr == c::kMcycle;
  };
}

bool MismatchDetector::finalize(Mismatch& m) const {
  m.signature = signature_of(m);
  m.finding = classify(m);
  for (const FilterRule& rule : filters_) {
    if (rule(m)) return false;
  }
  return true;
}

Report MismatchDetector::compare(const sim::Trace& dut,
                                 const sim::Trace& golden) const {
  Report report;
  bool diverged = false;

  auto emit = [&](Mismatch&& m) {
    ++report.raw_count;
    if (!finalize(m)) {
      ++report.filtered_count;
      return;
    }
    report.mismatches.push_back(std::move(m));
  };

  const std::size_t n = std::min(dut.size(), golden.size());
  for (std::size_t i = 0; i < n && !diverged; ++i) {
    const sim::CommitRecord& d = dut[i];
    const sim::CommitRecord& g = golden[i];
    if (d.pc != g.pc) {
      emit({Kind::kPcDivergence, i, d, g, {}, Finding::kOther});
      diverged = true;
      break;
    }
    if (d.instr != g.instr) {
      emit({Kind::kStaleInstr, i, d, g, {}, Finding::kOther});
      diverged = true;
      break;
    }
    if (d.exception != g.exception) {
      emit({Kind::kException, i, d, g, {}, Finding::kOther});
    }
    if (d.has_rd_write != g.has_rd_write) {
      emit({Kind::kRdPresence, i, d, g, {}, Finding::kOther});
    } else if (d.has_rd_write &&
               (d.rd != g.rd || d.rd_value != g.rd_value)) {
      emit({Kind::kRdValue, i, d, g, {}, Finding::kOther});
    }
    if (d.has_mem != g.has_mem) {
      emit({Kind::kMemPresence, i, d, g, {}, Finding::kOther});
    } else if (d.has_mem && (d.mem_addr != g.mem_addr ||
                             d.mem_value != g.mem_value ||
                             d.mem_size != g.mem_size)) {
      emit({Kind::kMemValue, i, d, g, {}, Finding::kOther});
    }
  }
  if (!diverged && dut.size() != golden.size()) {
    Mismatch m{Kind::kLength, n, {}, {}, {}, Finding::kOther};
    if (n > 0) {
      m.dut = dut[std::min(n, dut.size() - 1)];
      m.golden = golden[std::min(n, golden.size() - 1)];
    }
    emit(std::move(m));
  }
  return report;
}

void MismatchDetector::accumulate(const Report& report) {
  total_raw_ += report.raw_count;
  total_post_filter_ += report.mismatches.size();
  for (const Mismatch& m : report.mismatches) {
    ++unique_signatures_[m.signature];
    signature_findings_.emplace(m.signature, m.finding);
  }
}

std::unordered_set<Finding> MismatchDetector::findings_seen() const {
  std::unordered_set<Finding> out;
  for (const auto& [sig, finding] : signature_findings_) out.insert(finding);
  return out;
}

void MismatchDetector::save_state(ser::Writer& w) const {
  w.u64(total_raw_);
  w.u64(total_post_filter_);
  std::vector<std::string> sigs;
  sigs.reserve(unique_signatures_.size());
  for (const auto& [sig, count] : unique_signatures_) sigs.push_back(sig);
  std::sort(sigs.begin(), sigs.end());
  w.u64(sigs.size());
  for (const std::string& sig : sigs) {
    w.str(sig);
    w.u64(unique_signatures_.at(sig));
    const auto it = signature_findings_.find(sig);
    w.u32(static_cast<std::uint32_t>(
        it != signature_findings_.end() ? it->second : Finding::kOther));
  }
}

bool MismatchDetector::restore_state(ser::Reader& r) {
  const std::uint64_t raw = r.u64();
  const std::uint64_t post = r.u64();
  const std::uint64_t n = r.u64();
  std::unordered_map<std::string, std::size_t> sigs;
  std::unordered_map<std::string, Finding> finds;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string sig = r.str();
    const std::uint64_t count = r.u64();
    const std::uint32_t finding = r.u32();
    if (finding > static_cast<std::uint32_t>(Finding::kOther)) {
      r.fail();
      break;
    }
    finds.emplace(sig, static_cast<Finding>(finding));
    sigs.emplace(std::move(sig), static_cast<std::size_t>(count));
  }
  if (!r.ok()) return false;
  total_raw_ = static_cast<std::size_t>(raw);
  total_post_filter_ = static_cast<std::size_t>(post);
  unique_signatures_ = std::move(sigs);
  signature_findings_ = std::move(finds);
  return true;
}

void write_report_summary(ser::Writer& w, const Report& report) {
  w.varint(report.raw_count);
  w.varint(report.filtered_count);
  // Count the runs first (one cheap pass; mismatch lists are short).
  std::size_t runs = 0;
  for (std::size_t i = 0; i < report.mismatches.size(); ++i) {
    const Mismatch& m = report.mismatches[i];
    if (i == 0 || m.kind != report.mismatches[i - 1].kind ||
        m.finding != report.mismatches[i - 1].finding ||
        m.signature != report.mismatches[i - 1].signature) {
      ++runs;
    }
  }
  w.varint(runs);
  for (std::size_t i = 0; i < report.mismatches.size();) {
    const Mismatch& m = report.mismatches[i];
    std::size_t j = i + 1;
    while (j < report.mismatches.size() &&
           report.mismatches[j].kind == m.kind &&
           report.mismatches[j].finding == m.finding &&
           report.mismatches[j].signature == m.signature) {
      ++j;
    }
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.u8(static_cast<std::uint8_t>(m.finding));
    w.str(m.signature);
    w.varint(j - i);
    i = j;
  }
}

bool read_report_summary(ser::Reader& r, Report& out) {
  out.mismatches.clear();
  out.raw_count = static_cast<std::size_t>(r.varint());
  out.filtered_count = static_cast<std::size_t>(r.varint());
  const std::uint64_t runs = r.varint();
  // A run is at least 11 payload bytes (two enum bytes, the signature's
  // length prefix, one count byte).
  if (!r.ok() || runs > r.remaining() / 11) {
    r.fail();
    return false;
  }
  // Post-filter records can never outnumber the raw observations; a count
  // beyond that is corruption, not a big test.
  const std::uint64_t max_records = out.raw_count;
  std::uint64_t total = 0;
  for (std::uint64_t g = 0; g < runs; ++g) {
    const std::uint8_t kind = r.u8();
    const std::uint8_t finding = r.u8();
    if (!r.ok() || kind > static_cast<std::uint8_t>(Kind::kLength) ||
        finding > static_cast<std::uint8_t>(Finding::kOther)) {
      r.fail();
      return false;
    }
    Mismatch m;
    m.kind = static_cast<Kind>(kind);
    m.finding = static_cast<Finding>(finding);
    m.signature = r.str();
    const std::uint64_t count = r.varint();
    if (!r.ok() || count == 0 || total + count > max_records) {
      r.fail();
      return false;
    }
    total += count;
    for (std::uint64_t k = 0; k < count; ++k) out.mismatches.push_back(m);
  }
  return r.ok();
}

}  // namespace chatfuzz::mismatch
