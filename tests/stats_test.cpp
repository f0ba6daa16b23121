// util/stats.h and util/parse.h unit coverage. The load-bearing case is the
// degenerate Histogram range: hi == lo used to divide by zero, producing a
// NaN whose int64 cast is undefined behavior — obs::Histo construction from
// config knobs must never be able to reach that. parse_count reads every
// count the CLI, the bench binaries and CHATFUZZ_ML_THREADS take, so each
// input strtoul would have bent into a number must come back empty.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/parse.h"
#include "util/stats.h"

namespace chatfuzz {
namespace {

TEST(Histogram, DegenerateRangeRoutesToFirstBucket) {
  Histogram h(5.0, 5.0, 8);  // hi == lo: every t would be 0/0
  h.add(5.0);
  h.add(-1e30);
  h.add(1e30);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bucket(0), 3u);
  for (std::size_t b = 1; b < h.buckets(); ++b) {
    EXPECT_EQ(h.bucket(b), 0u) << "bucket " << b;
  }
}

TEST(Histogram, ReversedRangeRoutesToFirstBucket) {
  Histogram h(10.0, 0.0, 4);  // hi < lo: denominator negative
  h.add(3.0);
  h.add(100.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);
}

TEST(Histogram, NanInputDoesNotCorrupt) {
  Histogram h(0.0, 10.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 3u);
  // NaN lands in bucket 0; infinities clamp to the edge buckets.
  EXPECT_EQ(h.bucket(0) + h.bucket(3), 3u);
}

TEST(Histogram, InRangeValuesBucketAndClamp) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);    // bucket 0
  h.add(2.5);    // bucket 1
  h.add(9.999);  // bucket 4
  h.add(-3.0);   // clamps to 0
  h.add(42.0);   // clamps to 4
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(RunningStat, WelfordMatchesClosedForm) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(ParseCount, AcceptsPlainDecimalCounts) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("42"), 42u);
  EXPECT_EQ(parse_count("007"), 7u);
  EXPECT_EQ(parse_count("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
}

TEST(ParseCount, RejectsWhatStrtoulWouldBend) {
  EXPECT_EQ(parse_count(nullptr), std::nullopt);
  EXPECT_EQ(parse_count(""), std::nullopt);
  EXPECT_EQ(parse_count("-1"), std::nullopt);   // strtoul: 2^64 - 1
  EXPECT_EQ(parse_count("+1"), std::nullopt);
  EXPECT_EQ(parse_count(" 1"), std::nullopt);   // strtoul skips the space
  EXPECT_EQ(parse_count(" -1"), std::nullopt);
  EXPECT_EQ(parse_count("1x"), std::nullopt);   // strtoul: 1
  EXPECT_EQ(parse_count("abc"), std::nullopt);  // strtoul: 0
  EXPECT_EQ(parse_count("18446744073709551616"), std::nullopt);  // 2^64
}

}  // namespace
}  // namespace chatfuzz
