// Coverage substrate tests: DB bin accounting, the Coverage Calculator's
// stand-alone / incremental / total values (§IV-B), report round-trip, and
// the DifuzzRTL-style control-register coverage set.
#include <gtest/gtest.h>

#include "coverage/cover.h"

namespace chatfuzz::cov {
namespace {

TEST(CoverageDB, RegistrationCreatesTwoBinsPerPoint) {
  CoverageDB db;
  db.register_cond("a");
  db.register_cond("b");
  EXPECT_EQ(db.num_points(), 2u);
  EXPECT_EQ(db.num_bins(), 4u);
  EXPECT_EQ(db.total_covered(), 0u);
}

TEST(CoverageDB, HitSetsTheRightBin) {
  CoverageDB db;
  const PointId p = db.register_cond("x");
  db.begin_test();
  db.hit(p, true);
  EXPECT_TRUE(db.bin_covered(2 * p + 1));
  EXPECT_FALSE(db.bin_covered(2 * p));
  db.hit(p, false);
  EXPECT_TRUE(db.bin_covered(2 * p));
  EXPECT_EQ(db.total_covered(), 2u);
  EXPECT_DOUBLE_EQ(db.total_percent(), 100.0);
}

TEST(CoverageDB, HitsAccumulateCounts) {
  CoverageDB db;
  const PointId p = db.register_cond("x");
  db.begin_test();
  for (int i = 0; i < 5; ++i) db.hit(p, true);
  EXPECT_EQ(db.bin_hits(2 * p + 1), 5u);
}

TEST(CoverageDB, BeginTestClearsStandaloneOnly) {
  CoverageDB db;
  const PointId p = db.register_cond("x");
  db.begin_test();
  db.hit(p, true);
  EXPECT_EQ(db.test_covered(), 1u);
  db.begin_test();
  EXPECT_EQ(db.test_covered(), 0u);
  EXPECT_EQ(db.total_covered(), 1u);  // cumulative survives
}

TEST(CoverageDB, ResetHitsKeepsPoints) {
  CoverageDB db;
  const PointId p = db.register_cond("x");
  db.hit(p, true);
  db.reset_hits();
  EXPECT_EQ(db.num_points(), 1u);
  EXPECT_EQ(db.total_covered(), 0u);
}

TEST(Calculator, StandaloneIncrementalTotal) {
  CoverageDB db;
  const PointId a = db.register_cond("a");
  const PointId b = db.register_cond("b");
  CoverageCalculator calc(db);

  calc.begin_test();
  db.hit(a, true);
  TestCoverage t1 = calc.end_test();
  EXPECT_EQ(t1.standalone_bins, 1u);
  EXPECT_EQ(t1.incremental_bins, 1u);
  EXPECT_EQ(t1.total_bins, 1u);
  EXPECT_EQ(t1.universe_bins, 4u);

  // Second test re-hits a known bin and adds one new bin.
  calc.begin_test();
  db.hit(a, true);
  db.hit(b, false);
  TestCoverage t2 = calc.end_test();
  EXPECT_EQ(t2.standalone_bins, 2u);
  EXPECT_EQ(t2.incremental_bins, 1u);  // only b:false is new
  EXPECT_EQ(t2.total_bins, 2u);
}

TEST(Calculator, IncrementalSumsToTotal) {
  // Property: sum of incremental values across tests == final total.
  CoverageDB db;
  std::vector<PointId> ps;
  for (int i = 0; i < 16; ++i) ps.push_back(db.register_cond("p"));
  CoverageCalculator calc(db);
  std::size_t inc_sum = 0;
  std::uint64_t lcg = 12345;
  for (int t = 0; t < 20; ++t) {
    calc.begin_test();
    for (int h = 0; h < 10; ++h) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      db.hit(ps[(lcg >> 33) % ps.size()], (lcg >> 62) & 1);
    }
    inc_sum += calc.end_test().incremental_bins;
  }
  EXPECT_EQ(inc_sum, db.total_covered());
}

TEST(Calculator, PercentagesAreConsistent) {
  CoverageDB db;
  const PointId a = db.register_cond("a");
  db.register_cond("b");
  CoverageCalculator calc(db);
  calc.begin_test();
  db.hit(a, true);
  db.hit(a, false);
  const TestCoverage tc = calc.end_test();
  EXPECT_DOUBLE_EQ(tc.standalone_percent(), 50.0);
  EXPECT_DOUBLE_EQ(tc.total_percent(), 50.0);
}

TEST(Report, RoundTrip) {
  CoverageDB db;
  const PointId a = db.register_cond("fetch.icache.hit");
  const PointId b = db.register_cond("mem.dcache.hit");
  db.hit(a, true);
  db.hit(a, true);
  db.hit(b, false);
  const std::string text = format_report(db);
  const auto entries = parse_report(text);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "fetch.icache.hit");
  EXPECT_EQ(entries[0].true_hits, 2u);
  EXPECT_EQ(entries[0].false_hits, 0u);
  EXPECT_EQ(entries[1].name, "mem.dcache.hit");
  EXPECT_EQ(entries[1].true_hits, 0u);
  EXPECT_EQ(entries[1].false_hits, 1u);
}

TEST(Report, ParserIgnoresGarbage) {
  const auto entries = parse_report("# comment\nnot a line\nCOND bad\n");
  EXPECT_TRUE(entries.empty());
}

TEST(CtrlReg, CountsDistinctStates) {
  CtrlRegCoverage c;
  EXPECT_TRUE(c.observe(1));
  EXPECT_TRUE(c.observe(2));
  EXPECT_FALSE(c.observe(1));
  EXPECT_EQ(c.distinct_states(), 2u);
}

TEST(CtrlReg, PerTestNewStates) {
  CtrlRegCoverage c;
  c.begin_test();
  c.observe(1);
  c.observe(1);
  c.observe(2);
  EXPECT_EQ(c.test_new_states(), 2u);
  c.begin_test();
  c.observe(1);
  EXPECT_EQ(c.test_new_states(), 0u);
  c.observe(3);
  EXPECT_EQ(c.test_new_states(), 1u);
}

TEST(CtrlReg, ResetClears) {
  CtrlRegCoverage c;
  c.observe(1);
  c.reset();
  EXPECT_EQ(c.distinct_states(), 0u);
  EXPECT_TRUE(c.observe(1));
}

TEST(CtrlReg, ManyStatesStayDistinct) {
  // Membership is exact (the table grows instead of dropping inserts):
  // sharded campaigns rely on "counts" being independent of insertion
  // order, so no probe-limit collisions are tolerated.
  CtrlRegCoverage c;
  for (std::uint64_t i = 0; i < 5000; ++i) c.observe(i * 7919);
  EXPECT_EQ(c.distinct_states(), 5000u);
}

TEST(CtrlReg, GrowthRegimeIsInsertionOrderInvariant) {
  // Push two sets well past the initial table's 50%-load growth trigger
  // (32768 states) in opposite insertion orders; exact membership means
  // they must agree on every count.
  const std::uint64_t n = 50000;
  CtrlRegCoverage fwd, rev;
  for (std::uint64_t i = 0; i < n; ++i) fwd.observe(i * 0x9e3779b9ull);
  for (std::uint64_t i = n; i-- > 0;) rev.observe(i * 0x9e3779b9ull);
  EXPECT_EQ(fwd.distinct_states(), n);
  EXPECT_EQ(fwd.distinct_states(), rev.distinct_states());
  // Re-observing in either order finds nothing new.
  fwd.begin_test();
  for (std::uint64_t i = 0; i < n; ++i) fwd.observe(i * 0x9e3779b9ull);
  EXPECT_EQ(fwd.test_new_states(), 0u);
}

}  // namespace
}  // namespace chatfuzz::cov
