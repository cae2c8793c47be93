#include "core/refinement.h"

#include <gtest/gtest.h>

#include "core_test_util.h"

namespace vs::core {
namespace {

TEST(RefinementTest, RefinesEverythingUnderInfiniteDeadline) {
  auto world = testutil::MakeMiniWorld(0.3);
  IncrementalRefiner refiner(world.matrix.get());
  EXPECT_FALSE(refiner.AllExact());
  Deadline deadline = Deadline::Infinite();
  auto stats = refiner.RefineBatch({}, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 20);
  EXPECT_TRUE(stats->all_exact);
  EXPECT_TRUE(refiner.AllExact());
}

TEST(RefinementTest, WorkUnitDeadlineLimitsBatch) {
  auto world = testutil::MakeMiniWorld(0.3);
  IncrementalRefiner refiner(world.matrix.get());
  // Budget for exactly 5 rows.
  Deadline deadline =
      Deadline::AfterUnits(5 * world.matrix->RefineCostPerRow());
  auto stats = refiner.RefineBatch({}, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 5);
  EXPECT_FALSE(stats->all_exact);
  EXPECT_EQ(world.matrix->num_exact(), 5u);
}

TEST(RefinementTest, PriorityOrderRespected) {
  auto world = testutil::MakeMiniWorld(0.3);
  IncrementalRefiner refiner(world.matrix.get());
  // Priorities: view 7 highest, then 3, then everything else.
  std::vector<double> priorities(20, 0.0);
  priorities[7] = 2.0;
  priorities[3] = 1.0;
  Deadline deadline =
      Deadline::AfterUnits(2 * world.matrix->RefineCostPerRow());
  auto stats = refiner.RefineBatch(priorities, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 2);
  EXPECT_TRUE(world.matrix->IsExact(7));
  EXPECT_TRUE(world.matrix->IsExact(3));
  EXPECT_FALSE(world.matrix->IsExact(0));
}

TEST(RefinementTest, SkipsAlreadyExactRows) {
  auto world = testutil::MakeMiniWorld(0.3);
  ASSERT_TRUE(world.matrix->RefineRows({0}).ok());
  ASSERT_TRUE(world.matrix->RefineRows({1}).ok());
  IncrementalRefiner refiner(world.matrix.get());
  Deadline deadline = Deadline::Infinite();
  auto stats = refiner.RefineBatch({}, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 18);
}

TEST(RefinementTest, ExpiredDeadlineRefinesNothing) {
  auto world = testutil::MakeMiniWorld(0.3);
  IncrementalRefiner refiner(world.matrix.get());
  Deadline deadline = Deadline::AfterUnits(0);
  auto stats = refiner.RefineBatch({}, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 0);
}

TEST(RefinementTest, SecondBatchContinuesWhereFirstStopped) {
  auto world = testutil::MakeMiniWorld(0.3);
  IncrementalRefiner refiner(world.matrix.get());
  const int64_t cost = world.matrix->RefineCostPerRow();
  Deadline first = Deadline::AfterUnits(12 * cost);
  ASSERT_TRUE(refiner.RefineBatch({}, &first).ok());
  EXPECT_EQ(world.matrix->num_exact(), 12u);
  Deadline second = Deadline::Infinite();
  auto stats = refiner.RefineBatch({}, &second);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 8);
  EXPECT_TRUE(stats->all_exact);
}

TEST(RefinementTest, Validation) {
  auto world = testutil::MakeMiniWorld(0.3);
  IncrementalRefiner refiner(world.matrix.get());
  Deadline deadline = Deadline::Infinite();
  std::vector<double> wrong_size(3, 0.0);
  EXPECT_FALSE(refiner.RefineBatch(wrong_size, &deadline).ok());
  EXPECT_FALSE(refiner.RefineBatch({}, nullptr).ok());
  IncrementalRefiner null_refiner(nullptr);
  EXPECT_FALSE(null_refiner.RefineBatch({}, &deadline).ok());
}

TEST(RefinementTest, PrunedBatchSkipsHopelessViews) {
  auto world = testutil::MakeMiniWorld(0.3);
  IncrementalRefiner refiner(world.matrix.get());
  // Scores: view 0 dominates; with a tiny margin most views cannot enter
  // the top-1 and must be pruned.
  std::vector<double> scores(20, 0.0);
  scores[0] = 1.0;
  scores[1] = 0.99;
  PruningOptions pruning;
  pruning.k = 1;
  pruning.margin = 0.05;
  Deadline deadline = Deadline::Infinite();
  auto stats = refiner.RefineBatchPruned(scores, pruning, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 2);   // only views 0 and 1 are candidates
  EXPECT_EQ(stats->rows_pruned, 18);
  EXPECT_TRUE(world.matrix->IsExact(0));
  EXPECT_TRUE(world.matrix->IsExact(1));
  EXPECT_FALSE(world.matrix->IsExact(5));
}

TEST(RefinementTest, PrunedBatchWithHugeMarginMatchesUnpruned) {
  auto pruned_world = testutil::MakeMiniWorld(0.3);
  auto plain_world = testutil::MakeMiniWorld(0.3);
  std::vector<double> scores(20);
  for (size_t i = 0; i < 20; ++i) scores[i] = static_cast<double>(i);

  IncrementalRefiner pruned(pruned_world.matrix.get());
  PruningOptions pruning;
  pruning.k = 5;
  pruning.margin = 1e9;  // nothing prunable
  Deadline d1 = Deadline::Infinite();
  auto s1 = pruned.RefineBatchPruned(scores, pruning, &d1);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->rows_pruned, 0);

  IncrementalRefiner plain(plain_world.matrix.get());
  Deadline d2 = Deadline::Infinite();
  auto s2 = plain.RefineBatch(scores, &d2);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->rows_refined, s2->rows_refined);
}

TEST(RefinementTest, PrunedBatchRequiresFullPriorities) {
  auto world = testutil::MakeMiniWorld(0.3);
  IncrementalRefiner refiner(world.matrix.get());
  Deadline deadline = Deadline::Infinite();
  EXPECT_FALSE(
      refiner.RefineBatchPruned({}, PruningOptions{}, &deadline).ok());
}

TEST(RefinementTest, AlreadyExactMatrixIsNoop) {
  auto world = testutil::MakeMiniWorld(1.0);
  IncrementalRefiner refiner(world.matrix.get());
  Deadline deadline = Deadline::Infinite();
  auto stats = refiner.RefineBatch({}, &deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_refined, 0);
  EXPECT_TRUE(stats->all_exact);
}

}  // namespace
}  // namespace vs::core
