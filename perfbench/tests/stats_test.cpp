#include "harness/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace perfbench {
namespace {

TEST(StatsTest, MedianIsNearestRank) {
  EXPECT_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(StatsTest, BestDecilePicksTheFastWindows) {
  std::vector<double> windows;
  for (int i = 20; i >= 1; --i) windows.push_back(i);
  EXPECT_EQ(BestDecile(windows, /*lower_is_better=*/true), 2.0);
  EXPECT_EQ(BestDecile(windows, /*lower_is_better=*/false), 18.0);
  // A few slowed windows do not move it.
  windows.assign(17, 5.0);
  windows.insert(windows.end(), {40.0, 50.0, 60.0});
  EXPECT_EQ(BestDecile(windows, true), 5.0);
  EXPECT_EQ(BestDecile({}, true), 0.0);
}

TEST(StatsTest, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(HighestResolvedPercentile(5), 0.0);
  EXPECT_EQ(HighestResolvedPercentile(20), 50.0);
  EXPECT_EQ(HighestResolvedPercentile(99), 50.0);
  EXPECT_EQ(HighestResolvedPercentile(100), 90.0);
  EXPECT_EQ(HighestResolvedPercentile(999), 90.0);
  EXPECT_EQ(HighestResolvedPercentile(1000), 99.0);
  EXPECT_EQ(HighestResolvedPercentile(10000), 99.9);
  EXPECT_EQ(HighestResolvedPercentile(100000), 99.99);
}

TEST(StatsTest, SummaryReportsCountsAndTail) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.median, 500.0);
  EXPECT_EQ(s.tail_q, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_NE(s.Format("ms").find("n=1000"), std::string::npos);
}

TEST(StatsTest, FailuresCountAsInfinity) {
  std::vector<double> samples(95, 1.0);
  const Summary s = Summarize(samples, 5);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.failed, 5u);
  EXPECT_EQ(s.median, 1.0);
  EXPECT_TRUE(std::isinf(s.p99));
  // Half the operations failing pushes even the median to +inf.
  EXPECT_TRUE(std::isinf(Summarize(std::vector<double>(10, 1.0), 11).median));
}

}  // namespace
}  // namespace perfbench
