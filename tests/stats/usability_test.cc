#include "stats/usability.h"

#include <gtest/gtest.h>

namespace vs::stats {
namespace {

TEST(UsabilityTest, FewerOccupiedBinsIsMoreUsable) {
  EXPECT_DOUBLE_EQ(UsabilityFromCounts({10, 0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(UsabilityFromCounts({5, 5, 0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(UsabilityFromCounts({1, 1, 1, 1}), 0.25);
}

TEST(UsabilityTest, AllEmptyClampsToOne) {
  EXPECT_DOUBLE_EQ(UsabilityFromCounts({0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(UsabilityFromCounts({}), 1.0);
}

TEST(UsabilityTest, MonotoneInOccupancy) {
  double prev = 2.0;
  for (int occupied = 1; occupied <= 8; ++occupied) {
    std::vector<int64_t> counts(8, 0);
    for (int i = 0; i < occupied; ++i) counts[i] = 1;
    const double u = UsabilityFromCounts(counts);
    EXPECT_LT(u, prev);
    prev = u;
  }
}

struct Moments {
  std::vector<double> sum;
  std::vector<double> sumsq;
  std::vector<int64_t> count;
};

vs::Result<double> WithinBinSse(const Moments& m) {
  return stats::WithinBinSse(m.sum, m.sumsq, m.count);
}

vs::Result<double> AccuracyFromMoments(const Moments& m) {
  return stats::AccuracyFromMoments(m.sum, m.sumsq, m.count);
}

Moments MakeMoments(std::vector<std::vector<double>> bins) {
  Moments m;
  for (const auto& bin : bins) {
    double sum = 0.0;
    double sumsq = 0.0;
    for (double v : bin) {
      sum += v;
      sumsq += v * v;
    }
    m.sum.push_back(sum);
    m.sumsq.push_back(sumsq);
    m.count.push_back(static_cast<int64_t>(bin.size()));
  }
  return m;
}

TEST(WithinBinSseTest, ZeroWhenBinsAreConstant) {
  auto m = MakeMoments({{3.0, 3.0, 3.0}, {7.0, 7.0}});
  EXPECT_NEAR(*WithinBinSse(m), 0.0, 1e-12);
}

TEST(WithinBinSseTest, KnownValue) {
  // Bin {1, 3}: mean 2, SSE 2.  Bin {10}: SSE 0.
  auto m = MakeMoments({{1.0, 3.0}, {10.0}});
  EXPECT_NEAR(*WithinBinSse(m), 2.0, 1e-12);
}

TEST(WithinBinSseTest, EmptyBinsContributeNothing) {
  auto m = MakeMoments({{}, {2.0, 4.0}, {}});
  EXPECT_NEAR(*WithinBinSse(m), 2.0, 1e-12);
}

TEST(WithinBinSseTest, MismatchedArraysRejected) {
  Moments m;
  m.sum = {1.0};
  m.sumsq = {1.0, 2.0};
  m.count = {1};
  EXPECT_FALSE(WithinBinSse(m).ok());
}

TEST(AccuracyTest, PerfectGroupingScoresOne) {
  // Bins perfectly separate the values: within-bin variance 0.
  auto m = MakeMoments({{1.0, 1.0}, {5.0, 5.0}});
  EXPECT_NEAR(*AccuracyFromMoments(m), 1.0, 1e-12);
}

TEST(AccuracyTest, UselessGroupingScoresLow) {
  // Both bins contain the same spread: grouping explains nothing.
  auto m = MakeMoments({{0.0, 10.0}, {0.0, 10.0}});
  EXPECT_NEAR(*AccuracyFromMoments(m), 0.0, 1e-12);
}

TEST(AccuracyTest, IntermediateGrouping) {
  // Bins {1,2} and {8,9}: SST = 2*(4.5^2 + 3.5^2)... compute R^2 directly.
  auto m = MakeMoments({{1.0, 2.0}, {8.0, 9.0}});
  const double accuracy = *AccuracyFromMoments(m);
  EXPECT_GT(accuracy, 0.9);
  EXPECT_LT(accuracy, 1.0);
}

TEST(AccuracyTest, DegenerateCasesScoreOne) {
  // No rows at all.
  auto empty = MakeMoments({{}, {}});
  EXPECT_DOUBLE_EQ(*AccuracyFromMoments(empty), 1.0);
  // All values identical (SST = 0).
  auto constant = MakeMoments({{2.0, 2.0}, {2.0}});
  EXPECT_DOUBLE_EQ(*AccuracyFromMoments(constant), 1.0);
}

TEST(AccuracyTest, AlwaysInUnitInterval) {
  auto m = MakeMoments({{1.0, 9.0, 4.0}, {2.0, 2.5}, {100.0}});
  const double a = *AccuracyFromMoments(m);
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
}

}  // namespace
}  // namespace vs::stats
