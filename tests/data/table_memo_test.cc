#include "data/table_memo.h"

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "data/groupby.h"
#include "data/table.h"
#include "data/value.h"
#include "obs/metrics.h"
#include "testing/fault_injection.h"

namespace vs::data {
namespace {

// Differential suite for the full-table memo: a result served from the
// memo must equal, bit for bit, what the kernel computes on a table whose
// memo is empty — whichever batch filled the entry.

/// A table with nulls in every dimension and measure: categorical "c"
/// (\p cardinality labels), numeric dimensions "x" (double) and "i"
/// (int64), measures "m1" (double), "m2" (int64) and "m3" (double).
Table NullyTable(size_t rows, int cardinality, uint64_t seed) {
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kDimension},
      {"i", DataType::kInt64, FieldRole::kDimension},
      {"m1", DataType::kDouble, FieldRole::kMeasure},
      {"m2", DataType::kInt64, FieldRole::kMeasure},
      {"m3", DataType::kDouble, FieldRole::kMeasure},
  });
  Rng rng(seed);
  TableBuilder b(schema);
  b.Reserve(rows);
  auto maybe_null = [&](Value v) {
    return rng.NextBernoulli(0.08) ? Value() : v;
  };
  for (size_t r = 0; r < rows; ++r) {
    const auto code = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(cardinality)));
    EXPECT_TRUE(
        b.AppendRow({maybe_null(Value(StrFormat("L%d", code))),
                     maybe_null(Value(rng.NextDouble() * 40.0 - 7.0)),
                     maybe_null(Value(rng.NextInt64(-20, 300))),
                     maybe_null(Value(rng.NextGaussian() * 1e3)),
                     maybe_null(Value(rng.NextInt64(-5000, 5000))),
                     Value(rng.NextDouble() * 0.01 + 1e6)})
            .ok());
  }
  return *b.Build();
}

/// A second table over the same columns: same data, empty memo.
Table FreshCopy(const Table& table) {
  std::vector<ColumnPtr> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c));
  }
  return *Table::Make(table.schema(), std::move(columns));
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectBitIdentical(const GroupByResult& want, const GroupByResult& got,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(want.labels(), got.labels());
  EXPECT_EQ(want.counts(), got.counts());
  EXPECT_TRUE(SameBits(want.values, got.values));
  EXPECT_TRUE(SameBits(want.sums(), got.sums()));
  EXPECT_TRUE(SameBits(want.sumsqs(), got.sumsqs()));
  EXPECT_EQ(want.rows_seen, got.rows_seen);
}

/// Every aggregate function over each of \p measures.
std::vector<GroupBySpec> SpecsOver(const std::string& dimension,
                                   int32_t bins,
                                   const std::vector<std::string>& measures) {
  std::vector<GroupBySpec> specs;
  for (const std::string& m : measures) {
    for (AggregateFunction f : AllAggregateFunctions()) {
      specs.push_back({dimension, m, f, bins});
    }
  }
  return specs;
}

struct Shape {
  const char* name;
  size_t rows;
  int cardinality;
};

std::vector<Shape> Shapes() {
  return {
      {"small", 3000, 9},
      {"40 levels", 3000, 40},
      // >= 2^16 rows and <= 256 bins: lane-replicated sums.
      {"lanes", 70000, 9},
  };
}

// For each (dimension, binning): batch A over {m1, m2} fills the memo,
// then batch B over {m2, m3} and a single m1 spec are served (m3 fills on
// demand) and must match an uncached computation exactly.
TEST(TableMemoTest, ServedResultsBitIdenticalToUncached) {
  const std::vector<std::pair<std::string, int32_t>> groups = {
      {"c", 0}, {"x", 6}, {"i", 5}};
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE(shape.name);
    const Table base = NullyTable(shape.rows, shape.cardinality, 11);
    Table filled = FreshCopy(base);
    GroupByExecutor executor(&filled);
    size_t grids = 0;
    for (const auto& [dim, bins] : groups) {
      SCOPED_TRACE(dim);
      ASSERT_TRUE(
          executor.ExecuteBatch(SpecsOver(dim, bins, {"m1", "m2"}), nullptr)
              .ok());
      grids += 2;
      EXPECT_EQ(filled.memo()->num_grids(), grids);

      const std::vector<GroupBySpec> batch_b =
          SpecsOver(dim, bins, {"m2", "m3"});
      auto served = executor.ExecuteBatch(batch_b, nullptr);
      ASSERT_TRUE(served.ok());
      // Only m3 was missing, so only m3 was scanned and published.
      grids += 1;
      EXPECT_EQ(filled.memo()->num_grids(), grids);

      Table empty = FreshCopy(base);
      GroupByExecutor uncached(&empty);
      auto want = uncached.ExecuteBatch(batch_b, nullptr);
      ASSERT_TRUE(want.ok());
      for (size_t s = 0; s < batch_b.size(); ++s) {
        ExpectBitIdentical((*want)[s], (*served)[s], batch_b[s].ToString());
      }

      const GroupBySpec single{dim, "m1", AggregateFunction::kAvg, bins};
      Table empty_single = FreshCopy(base);
      auto single_want =
          GroupByExecutor(&empty_single).Execute(single, nullptr);
      auto single_got = executor.Execute(single, nullptr);
      ASSERT_TRUE(single_want.ok());
      ASSERT_TRUE(single_got.ok());
      ExpectBitIdentical(*single_want, *single_got, single.ToString());
      EXPECT_EQ(filled.memo()->num_grids(), grids);
    }
  }
}

// The key is (dimension, bin count, measure): a grid filled through one
// executor is served to every other executor on the table, and a view
// that differs in any of the three gets its own entry.
TEST(TableMemoTest, KeyIsDimensionBinsAndMeasure) {
  const Table base = NullyTable(70000, 9, 23);
  const GroupBySpec spec{"c", "m1", AggregateFunction::kSum, 0};

  Table filled = FreshCopy(base);
  ASSERT_TRUE(GroupByExecutor(&filled).Execute(spec, nullptr).ok());
  EXPECT_EQ(filled.memo()->num_grids(), 1u);
  {
    Table empty = FreshCopy(base);
    auto want = GroupByExecutor(&empty).Execute(spec, nullptr);
    auto got = GroupByExecutor(&filled).Execute(spec, nullptr);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*want, *got, spec.ToString());
    EXPECT_EQ(filled.memo()->num_grids(), 1u);
  }

  const std::vector<GroupBySpec> others = {
      {"x", "m1", AggregateFunction::kSum, 6},
      {"x", "m1", AggregateFunction::kSum, 7},  // bin count
      {"i", "m1", AggregateFunction::kSum, 6},  // dimension
      {"x", "m3", AggregateFunction::kSum, 6},  // measure
  };
  for (size_t k = 0; k < others.size(); ++k) {
    ASSERT_TRUE(GroupByExecutor(&filled).Execute(others[k], nullptr).ok());
    EXPECT_EQ(filled.memo()->num_grids(), 2u + k);
  }
  for (const GroupBySpec& other : others) {
    Table empty = FreshCopy(base);
    auto want = GroupByExecutor(&empty).Execute(other, nullptr);
    auto got = GroupByExecutor(&filled).Execute(other, nullptr);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*want, *got, other.ToString());
  }
  EXPECT_EQ(filled.memo()->num_grids(), 1u + others.size());
}

// A dimension far above the 256-bin lane limit (~19,400 distinct levels
// of 20,000 drawn over 70,000 rows): the grid the memo serves, and a
// selection run beside it, are bit-identical to the scalar oracle.
TEST(TableMemoTest, HighCardinalityGridMatchesScalarOracle) {
  const Table base = NullyTable(70000, 20000, 41);
  SelectionVector some;
  for (uint32_t r = 0; r < base.num_rows(); r += 3) some.push_back(r);
  GroupByExecutorOptions scalar;
  scalar.use_kernel = false;
  Table filled = FreshCopy(base);
  GroupByExecutor executor(&filled);
  const std::vector<GroupBySpec> batch = SpecsOver("c", 0, {"m1", "m2"});
  ASSERT_TRUE(executor.ExecuteBatch(batch, nullptr).ok());
  EXPECT_EQ(filled.memo()->num_grids(), 2u);
  const SelectionVector* selections[] = {nullptr, &some};
  for (const SelectionVector* sel : selections) {
    auto served = executor.ExecuteBatch(batch, sel);
    auto want = GroupByExecutor(&base, scalar).ExecuteBatch(batch, sel);
    ASSERT_TRUE(served.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_GT((*want)[0].num_bins(), size_t{1} << 14);
    for (size_t s = 0; s < batch.size(); ++s) {
      ExpectBitIdentical((*want)[s], (*served)[s],
                         batch[s].ToString() +
                             (sel == nullptr ? " all rows" : " selection"));
    }
  }
  EXPECT_EQ(filled.memo()->num_grids(), 2u);
}

TEST(TableMemoTest, LifetimeFollowsTheTable) {
  const Table base = NullyTable(200, 5, 3);
  ASSERT_NE(base.memo(), nullptr);
  ASSERT_TRUE(GroupByExecutor(&base)
                  .Execute({"x", "m1", AggregateFunction::kSum, 4}, nullptr)
                  .ok());
  EXPECT_EQ(base.memo()->num_grids(), 1u);
  EXPECT_EQ(base.memo()->num_ranges(), 1u);
  EXPECT_EQ(base.memo()->bytes(), 4u * 40u);

  // Copies share the memo (they share the immutable columns too).
  const Table copy = base;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.memo(), base.memo());

  // A new Make over the same columns, or a Take, starts empty.
  const Table remade = FreshCopy(base);
  EXPECT_NE(remade.memo(), base.memo());
  EXPECT_EQ(remade.memo()->num_grids(), 0u);
  EXPECT_EQ(remade.memo()->num_ranges(), 0u);
  auto taken = base.Take(base.AllRows());
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->memo()->num_grids(), 0u);
  EXPECT_EQ(taken->memo()->num_ranges(), 0u);
}

// Selections and the scalar oracle never fill grids; the memo holds only
// full-table kernel results.
TEST(TableMemoTest, OnlyFullTableKernelCallsFillGrids) {
  Table table = NullyTable(500, 5, 7);
  const GroupBySpec spec{"c", "m1", AggregateFunction::kAvg, 0};
  SelectionVector some = {0, 5, 9, 200, 499};
  ASSERT_TRUE(GroupByExecutor(&table).Execute(spec, &some).ok());
  EXPECT_EQ(table.memo()->num_grids(), 0u);
  GroupByExecutorOptions scalar;
  scalar.use_kernel = false;
  ASSERT_TRUE(GroupByExecutor(&table, scalar).Execute(spec, nullptr).ok());
  EXPECT_EQ(table.memo()->num_grids(), 0u);
  ASSERT_TRUE(GroupByExecutor(&table).Execute(spec, nullptr).ok());
  EXPECT_EQ(table.memo()->num_grids(), 1u);
}

// One labels vector per categorical dimension serves every result over
// it, on both paths and any selection; grids are shared, not copied.
TEST(TableMemoTest, CategoricalLabelsAndGridsAreShared) {
  Table table = NullyTable(500, 5, 8);
  EXPECT_EQ(table.memo()->FindLabels("c"), nullptr);
  const GroupBySpec avg{"c", "m1", AggregateFunction::kAvg, 0};
  const GroupBySpec sum{"c", "m1", AggregateFunction::kSum, 0};
  SelectionVector some = {1, 4, 77, 300};
  GroupByExecutorOptions scalar;
  scalar.use_kernel = false;
  auto target = GroupByExecutor(&table).ExecuteBatch({avg, sum}, &some);
  auto full = GroupByExecutor(&table).ExecuteBatch({avg, sum}, nullptr);
  auto oracle = GroupByExecutor(&table, scalar).Execute(avg, &some);
  ASSERT_TRUE(target.ok() && full.ok() && oracle.ok());
  const auto labels = table.memo()->FindLabels("c");
  ASSERT_NE(labels, nullptr);
  const auto* cat =
      dynamic_cast<const CategoricalColumn*>(table.column(0).get());
  ASSERT_NE(cat, nullptr);
  EXPECT_EQ(*labels, cat->dictionary());
  for (const GroupByResult* r : {&(*target)[0], &(*target)[1], &(*full)[0],
                                 &(*full)[1], &*oracle}) {
    EXPECT_EQ(r->bin_labels, labels);
  }
  // Both specs of one measure share one grid; the full-table one is the
  // memo's.
  EXPECT_EQ((*target)[0].moments, (*target)[1].moments);
  EXPECT_EQ((*full)[0].moments, (*full)[1].moments);
  const FullTableGridKey key{"c", cat->cardinality(), "m1"};
  EXPECT_EQ((*full)[0].moments, table.memo()->FindGrid(key));
}

// A fault during a fill publishes nothing; the next call recomputes and
// matches an uncached run.
TEST(TableMemoTest, FailedFillLeavesNoEntry) {
  const Table base = NullyTable(3000, 9, 5);
  const std::vector<GroupBySpec> batch = SpecsOver("x", 6, {"m1", "m3"});
  Table table = FreshCopy(base);
  GroupByExecutor executor(&table);
  fault::FaultInjector injector(1);
  injector.SetSchedule("kernel.run_fail", {1});
  fault::ScopedFaultInjector scoped(&injector);
  auto failed = executor.ExecuteBatch(batch, nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(table.memo()->num_grids(), 0u);
  EXPECT_EQ(table.memo()->bytes(), 0u);

  auto recovered = executor.ExecuteBatch(batch, nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(table.memo()->num_grids(), 2u);
  Table empty = FreshCopy(base);
  auto want = GroupByExecutor(&empty).ExecuteBatch(batch, nullptr);
  ASSERT_TRUE(want.ok());
  for (size_t s = 0; s < batch.size(); ++s) {
    ExpectBitIdentical((*want)[s], (*recovered)[s], batch[s].ToString());
  }
}

// Many threads fill and read one table's memo at once — shared and
// private executors, overlapping measure sets, interleaved selections —
// with nothing prewarmed.  Every answer must match the uncached one
// exactly, and each key is memoized once.  Part of the TSan job.
TEST(TableMemoTest, ManyThreadFillAndRead) {
  const Table base = NullyTable(20000, 12, 31);
  const std::vector<std::vector<GroupBySpec>> batches = {
      SpecsOver("c", 0, {"m1", "m2"}), SpecsOver("c", 0, {"m2", "m3"}),
      SpecsOver("x", 6, {"m1"}),       SpecsOver("x", 6, {"m1", "m3"}),
      SpecsOver("i", 5, {"m3", "m2"}), SpecsOver("i", 5, {"m1"}),
  };
  std::vector<std::vector<GroupByResult>> expected;
  for (const auto& batch : batches) {
    Table empty = FreshCopy(base);
    auto r = GroupByExecutor(&empty).ExecuteBatch(batch, nullptr);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(*r));
  }
  SelectionVector evens;
  for (uint32_t r = 0; r < base.num_rows(); r += 2) evens.push_back(r);

  Table table = FreshCopy(base);
  GroupByExecutor shared(&table);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 4;
  std::atomic<int> mismatches{0};
  ThreadPool pool(kThreads);
  pool.ParallelFor(0, kThreads, [&](size_t t) {
    GroupByExecutor own(&table);
    for (size_t round = 0; round < kRounds; ++round) {
      const size_t b = (t + round) % batches.size();
      const GroupByExecutor& executor = (t % 2 == 0) ? shared : own;
      if (!executor.ExecuteBatch(batches[b], &evens).ok()) {
        mismatches.fetch_add(1);
      }
      auto got = executor.ExecuteBatch(batches[b], nullptr);
      if (!got.ok()) {
        mismatches.fetch_add(1);
        continue;
      }
      for (size_t s = 0; s < got->size(); ++s) {
        const GroupByResult& want = expected[b][s];
        const GroupByResult& have = (*got)[s];
        if (have.counts() != want.counts() ||
            !SameBits(have.values, want.values) ||
            !SameBits(have.sums(), want.sums()) ||
            !SameBits(have.sumsqs(), want.sumsqs()) ||
            have.labels() != want.labels()) {
          mismatches.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(table.memo()->num_ranges(), 2u);  // x and i
  EXPECT_EQ(table.memo()->num_grids(), 8u);   // c:3, x:2, i:3
}

// Hits, misses and bytes reach the metrics registry and its Prometheus
// export.
TEST(TableMemoTest, ExportsHitsMissesAndBytes) {
  auto& registry = obs::MetricsRegistry::Default();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  obs::Counter* hits = registry.GetCounter("table_memo.hits");
  obs::Counter* misses = registry.GetCounter("table_memo.misses");
  obs::Gauge* bytes = registry.GetGauge("table_memo.bytes");
  const uint64_t hits0 = hits->value();
  const uint64_t misses0 = misses->value();
  const double bytes0 = bytes->value();
  {
    const Table table = NullyTable(300, 5, 9);
    GroupByExecutor executor(&table);
    const std::vector<GroupBySpec> batch = SpecsOver("c", 0, {"m1", "m2"});
    ASSERT_TRUE(executor.ExecuteBatch(batch, nullptr).ok());
    EXPECT_EQ(misses->value() - misses0, 2u);
    EXPECT_EQ(hits->value() - hits0, 0u);
    ASSERT_TRUE(executor.ExecuteBatch(batch, nullptr).ok());
    EXPECT_EQ(hits->value() - hits0, 2u);
    EXPECT_EQ(misses->value() - misses0, 2u);
    EXPECT_DOUBLE_EQ(bytes->value() - bytes0,
                     static_cast<double>(table.memo()->bytes()));
    EXPECT_EQ(table.memo()->bytes(), 2u * 5u * 40u);

    const std::string text = obs::ToPrometheusText(registry.SnapshotAll());
    for (const char* name :
         {"table_memo_hits", "table_memo_misses", "table_memo_bytes"}) {
      EXPECT_NE(text.find(name), std::string::npos) << name;
    }
  }
  // The table (and its memo) is gone; so are its bytes.
  EXPECT_DOUBLE_EQ(bytes->value(), bytes0);
  registry.set_enabled(was_enabled);
}

}  // namespace
}  // namespace vs::data
