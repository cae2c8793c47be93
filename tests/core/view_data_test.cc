#include "core/view_data.h"

#include <gtest/gtest.h>

#include "core_test_util.h"

namespace vs::core {
namespace {

TEST(MaterializeViewTest, TargetAndReferenceAlign) {
  data::Table table = testutil::MiniTable();
  data::SelectionVector query = testutil::MiniQuerySelection(table);
  data::GroupByExecutor executor(&table);
  ViewSpec spec{"size", "m1", data::AggregateFunction::kAvg, 0};
  auto mat = MaterializeView(executor, spec, query);
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->target.num_bins(), mat->reference.num_bins());
  EXPECT_EQ(mat->target.labels(), mat->reference.labels());
  EXPECT_EQ(mat->target_dist.size(), mat->reference_dist.size());
}

TEST(MaterializeViewTest, DistributionsAreNormalized) {
  data::Table table = testutil::MiniTable();
  data::SelectionVector query = testutil::MiniQuerySelection(table);
  data::GroupByExecutor executor(&table);
  for (const ViewSpec& spec : testutil::MiniViews(table)) {
    auto mat = MaterializeView(executor, spec, query);
    ASSERT_TRUE(mat.ok()) << spec.Id();
    EXPECT_TRUE(stats::IsValidDistribution(mat->target_dist)) << spec.Id();
    EXPECT_TRUE(stats::IsValidDistribution(mat->reference_dist))
        << spec.Id();
  }
}

TEST(MaterializeViewTest, TargetUsesOnlyQueryRows) {
  data::Table table = testutil::MiniTable();
  data::SelectionVector query = testutil::MiniQuerySelection(table);
  data::GroupByExecutor executor(&table);
  ViewSpec spec{"color", "m1", data::AggregateFunction::kCount, 0};
  auto mat = MaterializeView(executor, spec, query);
  ASSERT_TRUE(mat.ok());
  // Query is color == red: all target mass in the red bin.
  // Dictionary order comes from insertion; find the red bin by label.
  size_t red_bin = 0;
  for (size_t b = 0; b < mat->target.labels().size(); ++b) {
    if (mat->target.labels()[b] == "red") red_bin = b;
  }
  EXPECT_DOUBLE_EQ(mat->target_dist[red_bin], 1.0);
  EXPECT_EQ(mat->target.rows_seen, static_cast<int64_t>(query.size()));
  EXPECT_EQ(mat->reference.rows_seen,
            static_cast<int64_t>(table.num_rows()));
}

TEST(MaterializeViewTest, ReferenceSelectionRestrictsReference) {
  data::Table table = testutil::MiniTable();
  data::SelectionVector query = testutil::MiniQuerySelection(table);
  data::SelectionVector half;
  for (uint32_t r = 0; r < table.num_rows(); r += 2) half.push_back(r);
  data::GroupByExecutor executor(&table);
  ViewSpec spec{"size", "m2", data::AggregateFunction::kSum, 0};
  auto mat = MaterializeView(executor, spec, query, &half);
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->reference.rows_seen, static_cast<int64_t>(half.size()));
}

TEST(MaterializeViewTest, UnknownColumnsError) {
  data::Table table = testutil::MiniTable();
  data::SelectionVector query = testutil::MiniQuerySelection(table);
  data::GroupByExecutor executor(&table);
  ViewSpec bad{"bogus", "m1", data::AggregateFunction::kSum, 0};
  EXPECT_FALSE(MaterializeView(executor, bad, query).ok());
}

}  // namespace
}  // namespace vs::core
