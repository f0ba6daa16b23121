// Coverage-merge and corpus-persistence tests.
#include <gtest/gtest.h>

#include "core/replay.h"
#include "coverage/merge.h"
#include "riscv/builder.h"
#include "riscv/encode.h"
#include "rtlsim/core.h"

namespace chatfuzz {
namespace {

using core::Program;

TEST(Merge, UnionsCoverage) {
  cov::CoverageDB a, b;
  const cov::PointId pa = a.register_cond("x");
  const cov::PointId qa = a.register_cond("y");
  const cov::PointId pb = b.register_cond("x");
  const cov::PointId qb = b.register_cond("y");
  (void)qa;
  a.begin_test();
  b.begin_test();
  a.hit(pa, true);
  b.hit(pb, false);
  b.hit(qb, true);
  ASSERT_TRUE(cov::merge_into(a, b));
  EXPECT_EQ(a.total_covered(), 3u);
  EXPECT_EQ(a.bin_hits(2 * pa + 1), 1u);
  EXPECT_EQ(a.bin_hits(2 * pa), 1u);
}

TEST(Merge, RejectsMismatchedRegistrations) {
  cov::CoverageDB a, b;
  a.register_cond("x");
  b.register_cond("different");
  EXPECT_FALSE(cov::merge_into(a, b));
}

TEST(Merge, HitCountsAdd) {
  cov::CoverageDB a, b;
  const cov::PointId p = a.register_cond("x");
  b.register_cond("x");
  a.begin_test();
  b.begin_test();
  for (int i = 0; i < 5; ++i) a.hit(p, true);
  for (int i = 0; i < 3; ++i) b.hit(p, true);
  ASSERT_TRUE(cov::merge_into(a, b));
  EXPECT_EQ(a.bin_hits(2 * p + 1), 8u);
}

TEST(Merge, ReportsUnionByName) {
  const std::vector<std::vector<cov::ReportEntry>> reports = {
      {{"a", 1, 0}, {"b", 0, 2}},
      {{"b", 3, 1}, {"c", 1, 1}},
  };
  const auto merged = cov::merge_reports(reports);
  ASSERT_EQ(merged.size(), 3u);
  // std::map ordering: a, b, c.
  EXPECT_EQ(merged[1].name, "b");
  EXPECT_EQ(merged[1].true_hits, 3u);
  EXPECT_EQ(merged[1].false_hits, 3u);
}

TEST(Merge, UncoveredPointListing) {
  cov::CoverageDB db;
  const cov::PointId p = db.register_cond("hit_both");
  const cov::PointId q = db.register_cond("only_true");
  db.register_cond("never");
  db.begin_test();
  db.hit(p, true);
  db.hit(p, false);
  db.hit(q, true);
  const auto un = cov::uncovered_points(db);
  ASSERT_EQ(un.size(), 2u);
  EXPECT_EQ(un[0].name, "only_true");
  EXPECT_FALSE(un[0].missing_true);
  EXPECT_TRUE(un[0].missing_false);
  EXPECT_EQ(un[1].name, "never");
  EXPECT_TRUE(un[1].missing_true && un[1].missing_false);
}

TEST(Replay, CorpusTextRoundTrip) {
  const std::vector<Program> tests = {
      {0x00500513u, 0x00b60633u},
      {0xdeadbeefu},
      {},
  };
  const std::string text = core::corpus_to_text(tests);
  const auto back = core::corpus_from_text(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tests);
}

TEST(Replay, CorpusRejectsBadHex) {
  std::string err;
  const auto r = core::corpus_from_text("== test 0\nzzzz\n", &err);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos);
  // Words strtoul would take: overflow (kept as ffffffff), a sign, leading
  // space, a 0x prefix, and nine digits whose value fits.
  for (const char* word : {"1ffffffff", "-1", " 00000013", "0x13", "+13",
                           "000000013", "13 "}) {
    SCOPED_TRACE(std::string("word \"") + word + "\"");
    EXPECT_FALSE(core::corpus_from_text(
                     std::string("== test 0\n00000013\n") + word + "\n")
                     .has_value());
  }
}

TEST(Replay, CorpusWordsAreOneToEightHexDigits) {
  const auto r =
      core::corpus_from_text("== test 0\n13\r\nDeadBeef\n0\nffffffff\r\n");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (std::vector<Program>{{0x13u, 0xdeadbeefu, 0u, 0xffffffffu}}));
}

TEST(Replay, LenientParseQuarantinesBadBlocksVerbatim) {
  const std::string text =
      "# chatfuzz test corpus v1\n"
      "== test 0\n00000013\n"
      "== test 1\n00100093\n0x13\n00000073\n"
      "== test 2\n00500513\n";
  const core::CorpusParse p = core::corpus_from_text_lenient(text);
  EXPECT_EQ(p.tests,
            (std::vector<Program>{{0x00000013u}, {0x00500513u}}));
  EXPECT_EQ(p.bad_blocks, 1u);
  ASSERT_EQ(p.errors.size(), 1u);
  EXPECT_EQ(p.errors[0], "test 1, line 6: bad hex word");
  EXPECT_EQ(p.quarantine,
            "# dropped: test 1, line 6: bad hex word\n"
            "== test 1\n00100093\n0x13\n00000073\n");
  // The quarantine is itself corpus text that fails the same way.
  std::string err;
  EXPECT_FALSE(core::corpus_from_text(p.quarantine, &err).has_value());
  EXPECT_EQ(err, "test 0, line 4: bad hex word");
  // The strict parse of the whole file fails on the same block.
  EXPECT_FALSE(core::corpus_from_text(text, &err).has_value());
  EXPECT_EQ(err, p.errors[0]);
}

TEST(Replay, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/corpus_test.txt";
  const std::vector<Program> tests = {{0x00100093u, 0x00000073u}};
  ASSERT_TRUE(core::save_corpus(path, tests));
  const auto back = core::load_corpus(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tests);
}

TEST(Replay, ReplayFindsInjectedBug) {
  riscv::ProgramBuilder b;
  b.li(10, 6).li(11, 7).mul(12, 10, 11);
  const mismatch::Report rep =
      core::replay_test(b.seal(), core::CampaignConfig{});
  ASSERT_EQ(rep.mismatches.size(), 1u);
  EXPECT_EQ(rep.mismatches[0].finding, mismatch::Finding::kBug2TracerMulDiv);
}

TEST(Replay, CleanConfigReplaysClean) {
  riscv::ProgramBuilder b;
  b.li(10, 6).li(11, 7).mul(12, 10, 11);
  core::CampaignConfig cfg;
  cfg.core.bugs = rtl::BugInjections::none();
  const mismatch::Report rep = core::replay_test(b.seal(), cfg);
  EXPECT_TRUE(rep.mismatches.empty());
}

TEST(Replay, MismatchReportRendering) {
  mismatch::MismatchDetector det;
  riscv::ProgramBuilder b;
  b.li(10, 6).li(11, 7).mul(12, 10, 11);
  const auto rep = core::replay_test(b.seal(), core::CampaignConfig{});
  det.accumulate(rep);
  const std::string text = core::render_mismatch_report(det);
  EXPECT_NE(text.find("unique=1"), std::string::npos);
  EXPECT_NE(text.find("Bug2"), std::string::npos);
}

}  // namespace
}  // namespace chatfuzz
