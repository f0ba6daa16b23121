// Coverage-merge algebra: sharded campaigns are only correct if merging
// per-worker coverage is associative and commutative — any reduction tree
// over any worker order must land on the same cumulative coverage. These
// tests pin that down for whole-DB merges (merge_into), parsed-report
// merges (merge_reports), and the sparse per-test slices (extract_bins /
// apply_bins) the parallel campaign engine ships between threads.
#include <gtest/gtest.h>

#include <algorithm>

#include "coverage/cover.h"
#include "coverage/merge.h"
#include "util/rng.h"

namespace chatfuzz::cov {
namespace {

// A small DB with a fixed point layout and pseudo-random hit counts.
CoverageDB make_db(std::uint64_t seed, std::size_t points = 12) {
  CoverageDB db;
  for (std::size_t i = 0; i < points; ++i) {
    db.register_cond("p" + std::to_string(i));
  }
  chatfuzz::Rng rng(seed);
  for (std::size_t i = 0; i < points; ++i) {
    const auto id = static_cast<PointId>(i);
    // Leave some bins empty so covered-ness (not just counts) is exercised.
    if (rng.chance(0.7)) db.add_hits(id, true, rng.below(5) + 1);
    if (rng.chance(0.7)) db.add_hits(id, false, rng.below(5) + 1);
  }
  return db;
}

std::vector<std::uint64_t> all_hits(const CoverageDB& db) {
  std::vector<std::uint64_t> out;
  for (std::size_t b = 0; b < db.num_bins(); ++b) out.push_back(db.bin_hits(b));
  return out;
}

TEST(Merge, MergeIntoIsCommutative) {
  CoverageDB ab = make_db(1);
  ASSERT_TRUE(merge_into(ab, make_db(2)));

  CoverageDB ba = make_db(2);
  ASSERT_TRUE(merge_into(ba, make_db(1)));

  EXPECT_EQ(all_hits(ab), all_hits(ba));
  EXPECT_EQ(ab.total_covered(), ba.total_covered());
}

TEST(Merge, MergeIntoIsAssociative) {
  // (A u B) u C
  CoverageDB left = make_db(1);
  ASSERT_TRUE(merge_into(left, make_db(2)));
  ASSERT_TRUE(merge_into(left, make_db(3)));

  // A u (B u C)
  CoverageDB bc = make_db(2);
  ASSERT_TRUE(merge_into(bc, make_db(3)));
  CoverageDB right = make_db(1);
  ASSERT_TRUE(merge_into(right, bc));

  EXPECT_EQ(all_hits(left), all_hits(right));
}

TEST(Merge, EveryWorkerOrderingYieldsTheSameCumulativeCoverage) {
  std::vector<std::size_t> order = {0, 1, 2, 3};
  std::vector<std::uint64_t> reference;
  do {
    CoverageDB acc = make_db(100 + order[0]);
    for (std::size_t i = 1; i < order.size(); ++i) {
      ASSERT_TRUE(merge_into(acc, make_db(100 + order[i])));
    }
    if (reference.empty()) {
      reference = all_hits(acc);
    } else {
      EXPECT_EQ(all_hits(acc), reference);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Merge, MismatchedLayoutsAreRejectedAndDstUntouched) {
  CoverageDB a = make_db(1, 4);
  const std::vector<std::uint64_t> before = all_hits(a);
  EXPECT_FALSE(merge_into(a, make_db(2, 5)));  // different point count
  EXPECT_EQ(all_hits(a), before);

  CoverageDB renamed;
  renamed.register_cond("p0");
  renamed.register_cond("other");
  renamed.register_cond("p2");
  renamed.register_cond("p3");
  EXPECT_FALSE(merge_into(a, renamed));  // same count, different names
  EXPECT_EQ(all_hits(a), before);
}

TEST(Merge, SparseSliceRoundTripsExactly) {
  const CoverageDB src = make_db(7);
  const std::vector<BinDelta> slice = extract_bins(src);
  for (const BinDelta& d : slice) EXPECT_NE(d.hits, 0u);  // sparse: no zeros

  CoverageDB dst = make_db(7, 12);
  dst.reset_hits();
  apply_bins(dst, slice);
  EXPECT_EQ(all_hits(dst), all_hits(src));
}

TEST(Merge, ApplyingSlicesInAnyGroupingMatchesWholeDbMerges) {
  // Worker view: three per-test slices applied one by one...
  CoverageDB folded = make_db(1, 12);
  folded.reset_hits();
  apply_bins(folded, extract_bins(make_db(21)));
  apply_bins(folded, extract_bins(make_db(22)));
  apply_bins(folded, extract_bins(make_db(23)));

  // ...must equal the tree-reduced whole-DB union of the same tests.
  CoverageDB tree = make_db(21);
  CoverageDB rhs = make_db(22);
  ASSERT_TRUE(merge_into(rhs, make_db(23)));
  ASSERT_TRUE(merge_into(tree, rhs));

  EXPECT_EQ(all_hits(folded), all_hits(tree));
}

TEST(Merge, MergeReportsIsOrderInsensitive) {
  const auto ra = parse_report(format_report(make_db(31)));
  const auto rb = parse_report(format_report(make_db(32)));
  const auto rc = parse_report(format_report(make_db(33)));

  const auto abc = merge_reports({ra, rb, rc});
  const auto cba = merge_reports({rc, rb, ra});
  ASSERT_EQ(abc.size(), cba.size());
  for (std::size_t i = 0; i < abc.size(); ++i) {
    EXPECT_EQ(abc[i].name, cba[i].name);
    EXPECT_EQ(abc[i].true_hits, cba[i].true_hits);
    EXPECT_EQ(abc[i].false_hits, cba[i].false_hits);
  }
}

}  // namespace
}  // namespace chatfuzz::cov
