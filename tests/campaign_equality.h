// Campaign equality for the determinism suites: two runs that must agree
// bit for bit (worker counts, process topologies, resume cuts, telemetry on
// or off, a restored generator) are compared on every result field and on
// every byte they persist.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/campaign.h"
#include "core/checkpoint.h"

namespace chatfuzz::core {

/// Every CampaignResult field, floating-point ones bit-exact (no tolerance).
inline void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.tests_run, b.tests_run);
  EXPECT_EQ(a.final_cov_percent, b.final_cov_percent);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_instrs, b.total_instrs);
  EXPECT_EQ(a.raw_mismatches, b.raw_mismatches);
  EXPECT_EQ(a.filtered_mismatches, b.filtered_mismatches);
  EXPECT_EQ(a.unique_mismatches, b.unique_mismatches);
  EXPECT_EQ(a.findings, b.findings);
  EXPECT_EQ(a.toggle_percent, b.toggle_percent);
  EXPECT_EQ(a.fsm_percent, b.fsm_percent);
  EXPECT_EQ(a.statement_percent, b.statement_percent);
  EXPECT_EQ(a.uncovered.size(), b.uncovered.size());
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].tests, b.curve[i].tests) << "point " << i;
    EXPECT_EQ(a.curve[i].hours, b.curve[i].hours) << "point " << i;
    EXPECT_EQ(a.curve[i].cond_cov_percent, b.curve[i].cond_cov_percent)
        << "point " << i;
    EXPECT_EQ(a.curve[i].ctrl_states, b.curve[i].ctrl_states) << "point " << i;
  }
}

inline std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every file of a corpus store directory, name -> bytes.
inline std::map<std::string, std::string> corpus_bytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e :
       std::filesystem::directory_iterator(std::filesystem::path(dir) /
                                           "corpus")) {
    out[e.path().filename().string()] = file_bytes(e.path());
  }
  return out;
}

/// The persisted coverage / mismatch / generator state and corpus store:
/// the byte-level form of "same coverage DB, same signature DB, same
/// generator stream, same corpus".
inline void expect_same_persisted_state(const std::string& dir_a,
                                        const std::string& dir_b) {
  CheckpointData a, b;
  ASSERT_TRUE(load_checkpoint(dir_a, &a).ok());
  ASSERT_TRUE(load_checkpoint(dir_b, &b).ok());
  EXPECT_EQ(a.coverage_blob, b.coverage_blob) << "coverage DB bytes differ";
  EXPECT_EQ(a.detector_blob, b.detector_blob)
      << "mismatch signature DB bytes differ";
  EXPECT_EQ(a.generator_blob, b.generator_blob)
      << "generator stream state differs";
  EXPECT_EQ(corpus_bytes(dir_a), corpus_bytes(dir_b))
      << "corpus store bytes differ";
}

}  // namespace chatfuzz::core
