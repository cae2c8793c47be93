#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/threadpool.h"
#include "data/groupby.h"
#include "data/table.h"
#include "data/table_memo.h"
#include "data/value.h"

namespace vs::data {
namespace {

// The range memo contract (data/table_memo.h): numeric ranges live in the
// table's memo, not in the executor.  Each numeric dimension's range is
// filled once per table — whatever executors, paths, bin counts and
// selections touch it — and concurrent readers need no prewarm.  Verified
// here on both the kernel path and the scalar oracle path.

Table MixedTable() {
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kDimension},
      {"i", DataType::kInt64, FieldRole::kDimension},
      {"m", DataType::kDouble, FieldRole::kMeasure},
  });
  Rng rng(5);
  TableBuilder b(schema);
  for (int r = 0; r < 500; ++r) {
    EXPECT_TRUE(b.AppendRow({Value("L" + std::to_string(rng.NextBounded(7))),
                             Value(rng.NextDouble() * 40.0),
                             Value(rng.NextInt64(0, 100)),
                             Value(rng.NextGaussian())})
                    .ok());
  }
  return *b.Build();
}

std::vector<GroupBySpec> WorkloadSpecs() {
  return {
      {"c", "m", AggregateFunction::kAvg, 0},
      {"x", "m", AggregateFunction::kSum, 6},
      {"x", "m", AggregateFunction::kMax, 6},
      {"i", "m", AggregateFunction::kCount, 4},
  };
}

TEST(GroupByBatchContractTest, EachRangeFilledOncePerTable) {
  for (const bool use_kernel : {false, true}) {
    SCOPED_TRACE(use_kernel ? "kernel" : "scalar");
    Table table = MixedTable();
    ASSERT_NE(table.memo(), nullptr);
    EXPECT_EQ(table.memo()->num_ranges(), 0u);
    GroupByExecutorOptions options;
    options.use_kernel = use_kernel;

    SelectionVector some_rows = {1, 3, 5, 7, 400};
    for (const GroupBySpec& spec : WorkloadSpecs()) {
      // A fresh executor per spec: the memo, not the executor, holds the
      // ranges.
      GroupByExecutor executor(&table, options);
      ASSERT_TRUE(executor.Execute(spec, nullptr).ok());
      ASSERT_TRUE(executor.Execute(spec, &some_rows).ok());
    }
    // Two numeric dimensions -> two memoized ranges; the categorical
    // dimension needs none.
    EXPECT_EQ(table.memo()->num_ranges(), 2u);

    // Shared-scan batches over each dimension group and a different bin
    // count over the same dimension reuse the memoized range: the memo is
    // keyed by dimension, not by binning.
    GroupByExecutor executor(&table, options);
    std::vector<GroupBySpec> numeric_batch = {
        {"x", "m", AggregateFunction::kSum, 6},
        {"x", "m", AggregateFunction::kMin, 6},
        {"x", "m", AggregateFunction::kAvg, 6},
    };
    ASSERT_TRUE(executor.ExecuteBatch(numeric_batch, nullptr).ok());
    ASSERT_TRUE(executor.ExecuteBatch(numeric_batch, &some_rows).ok());
    ASSERT_TRUE(
        executor.Execute({"x", "m", AggregateFunction::kSum, 9}, nullptr)
            .ok());
    EXPECT_EQ(table.memo()->num_ranges(), 2u);
  }
}

// Both paths compute the exact range (min/max is associative), so a range
// filled by one path gives the other the same bins it would compute
// itself.
TEST(GroupByBatchContractTest, RangeFilledByEitherPathGivesSameBins) {
  const GroupBySpec spec{"x", "m", AggregateFunction::kSum, 6};
  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  for (const bool kernel_fills : {false, true}) {
    SCOPED_TRACE(kernel_fills ? "kernel fills" : "scalar fills");
    Table filled = MixedTable();
    Table fresh = MixedTable();
    GroupByExecutor filler(&filled, kernel_fills ? GroupByExecutorOptions{}
                                                 : scalar_options);
    ASSERT_TRUE(filler.Execute(spec, nullptr).ok());
    ASSERT_EQ(filled.memo()->num_ranges(), 1u);

    GroupByExecutor reader(&filled, kernel_fills ? scalar_options
                                                 : GroupByExecutorOptions{});
    GroupByExecutor uncached(&fresh, kernel_fills ? scalar_options
                                                  : GroupByExecutorOptions{});
    auto got = reader.Execute(spec, nullptr);
    auto want = uncached.Execute(spec, nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->labels(), want->labels());
    EXPECT_EQ(got->counts(), want->counts());
    EXPECT_EQ(got->sums(), want->sums());
  }
}

// Concurrent readers over one table with no prewarm: every reader races
// to fill the same ranges (and, on the kernel path, the same full-table
// grids), all agree with a single-threaded run on a separate table, and
// each range is memoized exactly once.  Part of the TSan job.
TEST(GroupByBatchContractTest, ConcurrentReadersWithoutPrewarmAgree) {
  for (const bool use_kernel : {false, true}) {
    SCOPED_TRACE(use_kernel ? "kernel" : "scalar");
    GroupByExecutorOptions options;
    options.use_kernel = use_kernel;
    Table reference_table = MixedTable();
    GroupByExecutor reference(&reference_table, options);
    std::vector<GroupByResult> expected;
    for (const GroupBySpec& spec : WorkloadSpecs()) {
      auto r = reference.Execute(spec, nullptr);
      ASSERT_TRUE(r.ok());
      expected.push_back(std::move(*r));
    }

    Table table = MixedTable();
    GroupByExecutor shared(&table, options);
    constexpr size_t kReaders = 8;
    std::atomic<int> mismatches{0};
    ThreadPool readers(kReaders);
    readers.ParallelFor(0, kReaders, [&](size_t t) {
      const std::vector<GroupBySpec> specs = WorkloadSpecs();
      for (size_t i = 0; i < specs.size(); ++i) {
        const size_t s = (i + t) % specs.size();
        auto got = shared.Execute(specs[s], nullptr);
        if (!got.ok() || got->counts() != expected[s].counts() ||
            got->sums() != expected[s].sums() ||
            got->values != expected[s].values ||
            got->labels() != expected[s].labels()) {
          mismatches.fetch_add(1);
        }
      }
    });
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(table.memo()->num_ranges(), 2u);
    // Grids are memoized on the kernel path only: one per distinct
    // (dimension, bins, measure) of the workload.
    EXPECT_EQ(table.memo()->num_grids(), use_kernel ? 3u : 0u);
  }
}

// Identity between batch and per-spec execution is part of the batch
// contract: the batch must not take a different route from the single
// spec, memoized or not.
TEST(GroupByBatchContractTest, BatchIdenticalToPerSpecOnBothPaths) {
  Table table = MixedTable();
  std::vector<GroupBySpec> batch = {
      {"c", "m", AggregateFunction::kCount, 0},
      {"c", "m", AggregateFunction::kSum, 0},
      {"c", "m", AggregateFunction::kAvg, 0},
      {"c", "m", AggregateFunction::kMin, 0},
      {"c", "m", AggregateFunction::kMax, 0},
  };
  SelectionVector evens;
  for (uint32_t r = 0; r < table.num_rows(); r += 2) evens.push_back(r);

  for (const bool use_kernel : {false, true}) {
    SCOPED_TRACE(use_kernel ? "kernel" : "scalar");
    GroupByExecutorOptions options;
    options.use_kernel = use_kernel;
    GroupByExecutor executor(&table, options);
    auto results = executor.ExecuteBatch(batch, &evens);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), batch.size());
    for (size_t s = 0; s < batch.size(); ++s) {
      auto single = executor.Execute(batch[s], &evens);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(single->labels(), (*results)[s].labels());
      // One immutable label vector serves the whole batch.
      EXPECT_EQ((*results)[s].bin_labels.get(), (*results)[0].bin_labels.get());
      EXPECT_EQ(single->counts(), (*results)[s].counts());
      EXPECT_EQ(single->values, (*results)[s].values);
      EXPECT_EQ(single->sums(), (*results)[s].sums());
      EXPECT_EQ(single->sumsqs(), (*results)[s].sumsqs());
      EXPECT_EQ(single->rows_seen, (*results)[s].rows_seen);
    }
  }
}

// Batch validation: mixed dimensions or bin counts are rejected up front
// on both paths, with matching status codes.
TEST(GroupByBatchContractTest, MixedDimensionBatchRejectedOnBothPaths) {
  Table table = MixedTable();
  const std::vector<GroupBySpec> mixed_dim = {
      {"c", "m", AggregateFunction::kSum, 0},
      {"x", "m", AggregateFunction::kSum, 6},
  };
  const std::vector<GroupBySpec> mixed_bins = {
      {"x", "m", AggregateFunction::kSum, 6},
      {"x", "m", AggregateFunction::kSum, 7},
  };
  for (const bool use_kernel : {false, true}) {
    GroupByExecutorOptions options;
    options.use_kernel = use_kernel;
    GroupByExecutor executor(&table, options);
    for (const auto* batch : {&mixed_dim, &mixed_bins}) {
      auto r = executor.ExecuteBatch(*batch, nullptr);
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace vs::data
