#include "core/pruning.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core_test_util.h"

namespace vs::core {
namespace {

TEST(PruningTest, AllExactKeepsTopKOnly) {
  std::vector<double> scores = {0.9, 0.8, 0.5, 0.3, 0.1};
  std::vector<bool> exact(5, true);
  PruningOptions options;
  options.k = 2;
  options.margin = 0.05;
  auto candidates = TopKCandidates(scores, exact, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE((*candidates)[0]);
  EXPECT_TRUE((*candidates)[1]);
  EXPECT_FALSE((*candidates)[2]);
  EXPECT_FALSE((*candidates)[3]);
  EXPECT_FALSE((*candidates)[4]);
}

TEST(PruningTest, RoughRowsNearBoundarySurvive) {
  // Rough 0.75 with margin 0.1 can reach 0.85 >= second-best lower bound.
  std::vector<double> scores = {0.9, 0.8, 0.75, 0.3};
  std::vector<bool> exact = {true, true, false, false};
  PruningOptions options;
  options.k = 2;
  options.margin = 0.1;
  auto candidates = TopKCandidates(scores, exact, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE((*candidates)[2]);   // 0.75 + 0.1 >= 0.8
  EXPECT_FALSE((*candidates)[3]);  // 0.3 + 0.1 < 0.8
}

TEST(PruningTest, LargeMarginPrunesNothing) {
  std::vector<double> scores = {0.9, 0.5, 0.1};
  std::vector<bool> exact(3, false);
  PruningOptions options;
  options.k = 1;
  options.margin = 10.0;
  auto candidates = TopKCandidates(scores, exact, options);
  ASSERT_TRUE(candidates.ok());
  for (bool c : *candidates) EXPECT_TRUE(c);
}

TEST(PruningTest, ZeroMarginPrunesAggressively) {
  std::vector<double> scores = {0.9, 0.5, 0.1};
  std::vector<bool> exact(3, false);
  PruningOptions options;
  options.k = 1;
  options.margin = 0.0;
  auto candidates = TopKCandidates(scores, exact, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE((*candidates)[0]);
  EXPECT_FALSE((*candidates)[1]);
}

TEST(PruningTest, SafetyNoFalsePruning) {
  // Property: for any margin that truly bounds the rough error, the true
  // top-k is never pruned.
  vs::Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 30;
    const double margin = 0.1;
    std::vector<double> exact_scores(n);
    std::vector<double> rough_scores(n);
    std::vector<bool> exact(n, false);
    for (size_t i = 0; i < n; ++i) {
      exact_scores[i] = rng.NextDouble();
      rough_scores[i] =
          exact_scores[i] + (rng.NextDouble() * 2.0 - 1.0) * margin;
    }
    PruningOptions options;
    options.k = 5;
    options.margin = margin;
    auto candidates = TopKCandidates(rough_scores, exact, options);
    ASSERT_TRUE(candidates.ok());
    for (size_t v : TopKIndices(exact_scores, 5)) {
      EXPECT_TRUE((*candidates)[v]) << "true top-k view pruned";
    }
  }
}

TEST(PruningTest, OrderIsScoreDescendingRoughOnly) {
  std::vector<double> scores = {0.5, 0.9, 0.7, 0.8};
  std::vector<bool> exact = {false, true, false, false};
  PruningOptions options;
  options.k = 4;
  options.margin = 1.0;  // keep everything
  auto order = PrunedRefinementOrder(scores, exact, options);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<size_t>{3, 2, 0}));  // rough rows only
}

TEST(PruningTest, MatrixOverloadUsesExactness) {
  auto world = testutil::MakeMiniWorld(0.3);
  ASSERT_TRUE(world.matrix->RefineRows({0}).ok());
  std::vector<double> scores(world.matrix->num_views(), 0.5);
  PruningOptions options;
  options.k = 5;
  options.margin = 1.0;
  auto order = PrunedRefinementOrder(*world.matrix, scores, options);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->size(), world.matrix->num_views() - 1);  // row 0 exact
  for (size_t v : *order) EXPECT_NE(v, 0u);
}

TEST(PruningTest, Validation) {
  std::vector<double> scores = {0.5};
  std::vector<bool> exact = {true, false};
  PruningOptions options;
  EXPECT_FALSE(TopKCandidates(scores, exact, options).ok());
  exact = {true};
  options.k = 0;
  EXPECT_FALSE(TopKCandidates(scores, exact, options).ok());
  options.k = 1;
  options.margin = -0.1;
  EXPECT_FALSE(TopKCandidates(scores, exact, options).ok());
  EXPECT_FALSE(TopKCandidates({}, {}, PruningOptions{}).ok());
}

TEST(PruningTest, KLargerThanPoolKeepsEverything) {
  std::vector<double> scores = {0.9, 0.1};
  std::vector<bool> exact = {true, true};
  PruningOptions options;
  options.k = 10;
  auto candidates = TopKCandidates(scores, exact, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE((*candidates)[0]);
  EXPECT_TRUE((*candidates)[1]);
}

}  // namespace
}  // namespace vs::core
