#include "data/groupby_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
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

// ---------------------------------------------------------------------------
// Differential kernel-equivalence suite: the typed aggregation kernel
// (use_kernel=true) against the scalar fold oracle (use_kernel=false).
//
// Contract under test (data/groupby_kernel.h): bin assignment, counts,
// mins and maxs are always exact; runs without lane replication (small
// inputs, or more than 256 bins) are bit-identical to the oracle;
// lane-replicated (large-input, few-bin) runs reassociate sums/sumsqs and
// must agree within accumulation tolerance.
// ---------------------------------------------------------------------------

struct RandomTable {
  Table table;
  std::vector<GroupBySpec> specs;  // valid specs for this table
};

// A random table exercising every kernel dispatch: a string dimension
// (random cardinality, sometimes nullable), double and int64 numeric
// dimensions, double and int64 measures (double one sometimes nullable).
RandomTable MakeRandomTable(Rng& rng, size_t max_rows) {
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kDimension},
      {"i", DataType::kInt64, FieldRole::kDimension},
      {"md", DataType::kDouble, FieldRole::kMeasure},
      {"mi", DataType::kInt64, FieldRole::kMeasure},
  });
  const size_t rows = rng.NextBounded(max_rows + 1);
  const int64_t cardinality = rng.NextInt64(1, 24);
  const double dim_null_rate = rng.NextBernoulli(0.3) ? 0.1 : 0.0;
  const double measure_null_rate = rng.NextBernoulli(0.3) ? 0.15 : 0.0;
  // Occasionally a constant numeric dimension, so every row lands in one
  // bin (degenerate range).
  const bool constant_x = rng.NextBernoulli(0.1);

  TableBuilder b(schema);
  for (size_t r = 0; r < rows; ++r) {
    Value c = rng.NextBernoulli(dim_null_rate)
                  ? Value()
                  : Value("L" + std::to_string(rng.NextBounded(
                                    static_cast<uint64_t>(cardinality))));
    Value x = constant_x ? Value(3.25) : Value(rng.NextDouble() * 100.0 - 50.0);
    Value i = Value(rng.NextInt64(-20, 20));
    Value md = rng.NextBernoulli(measure_null_rate)
                   ? Value()
                   : Value(rng.NextGaussian() * 10.0);
    Value mi = Value(rng.NextInt64(-1000, 1000));
    EXPECT_TRUE(b.AppendRow({c, x, i, md, mi}).ok());
  }

  RandomTable out{*b.Build(), {}};
  const AggregateFunction funcs[] = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kMin,
      AggregateFunction::kMax};
  const char* dims[] = {"c", "x", "i"};
  const char* measures[] = {"md", "mi"};
  for (int s = 0; s < 4; ++s) {
    GroupBySpec spec;
    spec.dimension = dims[rng.NextBounded(3)];
    spec.measure = measures[rng.NextBounded(2)];
    spec.func = funcs[rng.NextBounded(5)];
    spec.num_bins =
        spec.dimension == "c" ? 0 : static_cast<int32_t>(rng.NextInt64(1, 9));
    out.specs.push_back(spec);
  }
  return out;
}

// nullptr = all rows; otherwise empty, a single row, or a random subset.
std::optional<SelectionVector> MakeRandomSelection(Rng& rng, size_t rows) {
  switch (rng.NextBounded(4)) {
    case 0:
      return std::nullopt;
    case 1:
      return SelectionVector{};
    case 2: {
      SelectionVector one;
      if (rows > 0) one.push_back(static_cast<uint32_t>(rng.NextBounded(rows)));
      return one;
    }
    default: {
      SelectionVector sel;
      const double keep = rng.NextDouble();
      for (size_t r = 0; r < rows; ++r) {
        if (rng.NextBernoulli(keep)) sel.push_back(static_cast<uint32_t>(r));
      }
      return sel;
    }
  }
}

void ExpectExactlyEqual(const GroupByResult& oracle, const GroupByResult& got,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(oracle.labels(), got.labels());
  EXPECT_EQ(oracle.counts(), got.counts());
  EXPECT_EQ(oracle.rows_seen, got.rows_seen);
  // Bit-identical: without lanes the kernel promises the oracle's exact
  // accumulation order.
  EXPECT_EQ(oracle.values, got.values);
  EXPECT_EQ(oracle.sums(), got.sums());
  EXPECT_EQ(oracle.sumsqs(), got.sumsqs());
}

void ExpectNear(double a, double b, const char* what, size_t bin) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_EQ(std::isnan(a), std::isnan(b)) << what << " bin " << bin;
    return;
  }
  const double tolerance =
      1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_LE(std::fabs(a - b), tolerance) << what << " bin " << bin;
}

// Lane-replicated runs: structure, counts and min/max stay exact,
// floating-point accumulations agree within tolerance.
void ExpectEquivalent(const GroupByResult& oracle, const GroupByResult& got,
                      AggregateFunction func, const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(oracle.labels(), got.labels());
  EXPECT_EQ(oracle.counts(), got.counts());
  EXPECT_EQ(oracle.rows_seen, got.rows_seen);
  ASSERT_EQ(oracle.values.size(), got.values.size());
  const bool exact_values = func == AggregateFunction::kCount ||
                            func == AggregateFunction::kMin ||
                            func == AggregateFunction::kMax;
  for (size_t bin = 0; bin < oracle.values.size(); ++bin) {
    if (exact_values) {
      EXPECT_EQ(oracle.values[bin], got.values[bin]) << "value bin " << bin;
    } else {
      ExpectNear(oracle.values[bin], got.values[bin], "value", bin);
    }
    ExpectNear(oracle.sums()[bin], got.sums()[bin], "sum", bin);
    ExpectNear(oracle.sumsqs()[bin], got.sumsqs()[bin], "sumsq", bin);
  }
}

// 150 random tables x 4 specs x random selections against the scalar
// oracle: 600 differential cases per run of this one test.
TEST(GroupByKernelDifferentialTest, RandomTablesMatchScalarOracle) {
  Rng rng(20260808);
  for (int iteration = 0; iteration < 150; ++iteration) {
    RandomTable random = MakeRandomTable(rng, /*max_rows=*/600);

    GroupByExecutorOptions scalar_options;
    scalar_options.use_kernel = false;
    GroupByExecutor scalar(&random.table, scalar_options);
    GroupByExecutor kernel(&random.table, {});

    for (const GroupBySpec& spec : random.specs) {
      const auto selection = MakeRandomSelection(rng, random.table.num_rows());
      const SelectionVector* sel = selection ? &*selection : nullptr;
      const std::string context =
          "iter " + std::to_string(iteration) + " " + spec.ToString() +
          (sel == nullptr ? " all rows"
                          : " sel " + std::to_string(sel->size()));

      auto oracle = scalar.Execute(spec, sel);
      ASSERT_TRUE(oracle.ok()) << context << ": " << oracle.status().ToString();

      auto got = kernel.Execute(spec, sel);
      ASSERT_TRUE(got.ok()) << context;
      ExpectExactlyEqual(*oracle, *got, context);
    }
  }
}

// A categorical dimension far above the lane limit (20,000 levels, the
// shape of e2ebench's cold_explore dimension) over more rows than the lane
// threshold: no lanes are used, so every bin sums in row order and the
// kernel is bit-identical to the oracle, full-table and under a
// selection.
TEST(GroupByKernelDifferentialTest, HighCardinalityDimensionBitIdentical) {
  Rng rng(20000);
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"md", DataType::kDouble, FieldRole::kMeasure},
      {"mi", DataType::kInt64, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  const size_t kRows = 70'000;  // > kLaneMinRows
  const uint64_t kLevels = 20'000;
  b.Reserve(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    // The first kLevels rows name every level once; the rest draw
    // zipf-ish (some bins hot) with a few null dimensions.
    const bool first_sight = r < kLevels;
    const uint64_t code =
        first_sight ? r : rng.NextBounded(1 + rng.NextBounded(kLevels));
    Value c = !first_sight && rng.NextBernoulli(0.02)
                  ? Value()
                  : Value("L" + std::to_string(code));
    Value md = rng.NextBernoulli(0.05) ? Value()
                                       : Value(rng.NextGaussian() * 1e3);
    ASSERT_TRUE(
        b.AppendRow({c, md, Value(rng.NextInt64(-5000, 5000))}).ok());
  }
  Table table = *b.Build();
  SelectionVector sel;
  for (uint32_t r = 0; r < kRows; ++r) {
    if (rng.NextBernoulli(0.3)) sel.push_back(r);
  }

  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  GroupByExecutor scalar(&table, scalar_options);
  GroupByExecutor kernel(&table, {});
  for (const char* measure : {"md", "mi"}) {
    for (AggregateFunction func :
         {AggregateFunction::kCount, AggregateFunction::kSum,
          AggregateFunction::kAvg, AggregateFunction::kMin,
          AggregateFunction::kMax}) {
      const GroupBySpec spec{"c", measure, func, 0};
      const SelectionVector* selections[] = {nullptr, &sel};
      for (const SelectionVector* s : selections) {
        auto oracle = scalar.Execute(spec, s);
        ASSERT_TRUE(oracle.ok());
        ASSERT_EQ(oracle->num_bins(), kLevels);
        auto got = kernel.Execute(spec, s);
        ASSERT_TRUE(got.ok());
        ExpectExactlyEqual(*oracle, *got,
                           spec.ToString() +
                               (s == nullptr ? " all rows" : " selection"));
      }
    }
  }
}

// Above the lane-replication threshold (64k rows) the dense kernel
// reassociates sums; counts/min/max/labels must stay exact and the
// floating-point aggregates within tolerance.
TEST(GroupByKernelDifferentialTest, LaneReplicatedLargeScanWithinTolerance) {
  Rng rng(7);
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kDimension},
      {"m", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  const size_t kRows = 80'000;  // > kLaneMinRows
  for (size_t r = 0; r < kRows; ++r) {
    // Zipf-hot labels: the exact shape lane replication exists for.
    const uint64_t code = std::min<uint64_t>(31, rng.NextBounded(64) / 3);
    ASSERT_TRUE(b.AppendRow({Value("L" + std::to_string(code)),
                             Value(rng.NextDouble() * 10.0),
                             Value(rng.NextGaussian())})
                    .ok());
  }
  Table table = *b.Build();

  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  GroupByExecutor scalar(&table, scalar_options);
  GroupByExecutor kernel(&table, {});

  for (const GroupBySpec& spec :
       {GroupBySpec{"c", "m", AggregateFunction::kSum, 0},
        GroupBySpec{"c", "m", AggregateFunction::kAvg, 0},
        GroupBySpec{"c", "m", AggregateFunction::kMin, 0},
        GroupBySpec{"c", "m", AggregateFunction::kMax, 0},
        GroupBySpec{"x", "m", AggregateFunction::kSum, 8}}) {
    auto oracle = scalar.Execute(spec, nullptr);
    ASSERT_TRUE(oracle.ok());
    auto got = kernel.Execute(spec, nullptr);
    ASSERT_TRUE(got.ok());
    ExpectEquivalent(*oracle, *got, spec.func, spec.ToString());
  }
}

// ExecuteBatch must agree with per-spec Execute on both paths, and the
// kernel batch with the scalar batch.
TEST(GroupByKernelDifferentialTest, BatchMatchesPerSpecExecution) {
  Rng rng(99);
  for (int iteration = 0; iteration < 25; ++iteration) {
    RandomTable random = MakeRandomTable(rng, /*max_rows=*/400);
    // Batch requires a shared dimension/bin count; derive variants of the
    // first spec across measures and functions.
    GroupBySpec base = random.specs[0];
    std::vector<GroupBySpec> specs;
    for (const char* measure : {"md", "mi"}) {
      for (AggregateFunction func :
           {AggregateFunction::kCount, AggregateFunction::kSum,
            AggregateFunction::kAvg, AggregateFunction::kMin,
            AggregateFunction::kMax}) {
        GroupBySpec spec = base;
        spec.measure = measure;
        spec.func = func;
        specs.push_back(spec);
      }
    }
    const auto selection = MakeRandomSelection(rng, random.table.num_rows());
    const SelectionVector* sel = selection ? &*selection : nullptr;

    for (const bool use_kernel : {false, true}) {
      GroupByExecutorOptions options;
      options.use_kernel = use_kernel;
      GroupByExecutor executor(&random.table, options);
      auto batch = executor.ExecuteBatch(specs, sel);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), specs.size());
      for (size_t s = 0; s < specs.size(); ++s) {
        auto single = executor.Execute(specs[s], sel);
        ASSERT_TRUE(single.ok());
        ExpectExactlyEqual(*single, (*batch)[s],
                           specs[s].ToString() +
                               (use_kernel ? " [kernel]" : " [scalar]"));
      }
    }
  }
}

// Invalid inputs must fail identically on both paths: same ok-ness, same
// status code.
TEST(GroupByKernelDifferentialTest, ErrorStatusParity) {
  Rng rng(3);
  RandomTable random = MakeRandomTable(rng, 50);
  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  GroupByExecutor scalar(&random.table, scalar_options);
  GroupByExecutor kernel(&random.table, {});

  const GroupBySpec bad_specs[] = {
      {"missing", "md", AggregateFunction::kSum, 0},
      {"c", "missing", AggregateFunction::kSum, 0},
      {"c", "md", AggregateFunction::kSum, 4},   // bins on categorical
      {"x", "md", AggregateFunction::kSum, 0},   // no bins on numeric
      {"x", "md", AggregateFunction::kSum, -3},  // negative bins
      {"md", "md", AggregateFunction::kSum, 0},  // measure as dimension
      {"c", "c", AggregateFunction::kSum, 0},    // dimension as measure
  };
  for (const GroupBySpec& spec : bad_specs) {
    SCOPED_TRACE(spec.ToString());
    auto oracle = scalar.Execute(spec, nullptr);
    auto got = kernel.Execute(spec, nullptr);
    EXPECT_EQ(oracle.ok(), got.ok());
    if (!oracle.ok() && !got.ok()) {
      EXPECT_EQ(oracle.status().code(), got.status().code());
    }
  }

  // Out-of-range selection row ids.
  SelectionVector bad_sel = {
      static_cast<uint32_t>(random.table.num_rows() + 7)};
  auto oracle =
      scalar.Execute({"c", "md", AggregateFunction::kSum, 0}, &bad_sel);
  auto got = kernel.Execute({"c", "md", AggregateFunction::kSum, 0}, &bad_sel);
  EXPECT_EQ(oracle.ok(), got.ok());
  if (!oracle.ok() && !got.ok()) {
    EXPECT_EQ(oracle.status().code(), got.status().code());
  }
}

// Many-thread stress, aimed at the sanitizer CI jobs: 8 concurrent serial
// readers share one executor with nothing prewarmed, so they race to fill
// the table memo's range and full-table grids.  Every result must still
// match the scalar oracle (TSan/ASan make any race on the memo or the
// kernel's buffers visible; the assertions make silent corruption visible
// everywhere else).
TEST(GroupByKernelStressTest, ConcurrentReadersFillOneTableMemo) {
  Rng rng(1234);
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kDimension},
      {"m", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  const size_t kRows = 100'000;
  for (size_t r = 0; r < kRows; ++r) {
    ASSERT_TRUE(b.AppendRow({Value("L" + std::to_string(rng.NextBounded(17))),
                             Value(rng.NextDouble() * 5.0),
                             Value(rng.NextGaussian())})
                    .ok());
  }
  Table table = *b.Build();

  // The oracle runs over a second table on the same columns, so its
  // range fill leaves the stressed table's memo empty.
  std::vector<ColumnPtr> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c));
  }
  Table oracle_table = *Table::Make(table.schema(), columns);
  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  GroupByExecutor scalar(&oracle_table, scalar_options);
  GroupByExecutor kernel(&table, {});

  const std::vector<GroupBySpec> specs = {
      {"c", "m", AggregateFunction::kSum, 0},
      {"c", "m", AggregateFunction::kMin, 0},
      {"x", "m", AggregateFunction::kAvg, 8},
      {"x", "m", AggregateFunction::kCount, 8},
  };
  std::vector<GroupByResult> oracles;
  for (const GroupBySpec& spec : specs) {
    auto r = scalar.Execute(spec, nullptr);
    ASSERT_TRUE(r.ok());
    oracles.push_back(std::move(*r));
  }

  constexpr size_t kReaders = 8;
  constexpr size_t kRoundsPerReader = 3;
  std::atomic<int> failures{0};
  ThreadPool readers(kReaders);
  readers.ParallelFor(0, kReaders, [&](size_t t) {
    for (size_t round = 0; round < kRoundsPerReader; ++round) {
      const GroupBySpec& spec = specs[(t + round) % specs.size()];
      const GroupByResult& oracle = oracles[(t + round) % specs.size()];
      auto got = kernel.Execute(spec, nullptr);
      if (!got.ok() || got->counts() != oracle.counts() ||
          got->labels() != oracle.labels() ||
          got->rows_seen != oracle.rows_seen) {
        failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  // One range ("x") and one grid per (dimension, bins, measure) filled,
  // however the readers interleaved.
  EXPECT_EQ(table.memo()->num_ranges(), 1u);
  EXPECT_EQ(table.memo()->num_grids(), 2u);

  // Full-precision check once the swarm is done (tolerance: lane
  // replication reassociates the sums).
  for (size_t s = 0; s < specs.size(); ++s) {
    auto got = kernel.Execute(specs[s], nullptr);
    ASSERT_TRUE(got.ok());
    ExpectEquivalent(oracles[s], *got, specs[s].func, specs[s].ToString());
  }
}

// ---------------------------------------------------------------------------
// Gathered measures: ExecuteBatch over measures gathered once per selection
// must be memcmp-equal to the in-place batch (same lanes, same fold
// order), and to the scalar oracle below the lane thresholds.
// ---------------------------------------------------------------------------

// Nulls in the categorical and numeric dimensions and in the int64 and
// double measures, plus a null-free double measure.
Table MakeGatherTable(Rng& rng, size_t rows, uint64_t levels) {
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kDimension},
      {"i", DataType::kInt64, FieldRole::kDimension},
      {"md", DataType::kDouble, FieldRole::kMeasure},
      {"mi", DataType::kInt64, FieldRole::kMeasure},
      {"mc", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  b.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t code =
        r < levels ? r : rng.NextBounded(1 + rng.NextBounded(levels));
    Value c = r >= levels && rng.NextBernoulli(0.03)
                  ? Value()
                  : Value("L" + std::to_string(code));
    Value x = rng.NextBernoulli(0.05) ? Value()
                                      : Value(rng.NextDouble() * 40.0 - 7.0);
    Value i = Value(rng.NextInt64(-30, 30));
    Value md = rng.NextBernoulli(0.1) ? Value()
                                      : Value(rng.NextGaussian() * 1e3);
    Value mi = rng.NextBernoulli(0.1) ? Value()
                                      : Value(rng.NextInt64(-9000, 9000));
    Value mc = Value(rng.NextGaussian());
    EXPECT_TRUE(b.AppendRow({c, x, i, md, mi, mc}).ok());
  }
  return *b.Build();
}

void ExpectBitEqual(const std::vector<double>& want,
                    const std::vector<double>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)),
            0)
      << what;
}

void ExpectBatchesBitEqual(const std::vector<GroupByResult>& want,
                           const std::vector<GroupByResult>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t s = 0; s < want.size(); ++s) {
    SCOPED_TRACE("spec " + std::to_string(s));
    EXPECT_EQ(want[s].labels(), got[s].labels());
    EXPECT_EQ(want[s].counts(), got[s].counts());
    EXPECT_EQ(want[s].rows_seen, got[s].rows_seen);
    ExpectBitEqual(want[s].values, got[s].values, "values");
    ExpectBitEqual(want[s].sums(), got[s].sums(), "sums");
    ExpectBitEqual(want[s].sumsqs(), got[s].sumsqs(), "sumsqs");
  }
}

// The (dimension, bins) groups of the gather tests.
const std::vector<std::pair<std::string, int32_t>> kGatherGroups = {
    {"c", 0}, {"x", 7}, {"i", 4}};

// Every (dimension, bins) batch over every measure and function.
std::vector<std::vector<GroupBySpec>> GatherBatches() {
  std::vector<std::vector<GroupBySpec>> batches;
  for (const auto& [dim, bins] : kGatherGroups) {
    std::vector<GroupBySpec> batch;
    for (const char* measure : {"md", "mi", "mc"}) {
      for (AggregateFunction func :
           {AggregateFunction::kCount, AggregateFunction::kSum,
            AggregateFunction::kAvg, AggregateFunction::kMin,
            AggregateFunction::kMax}) {
        batch.push_back({dim, measure, func, bins});
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// Runs every batch gathered and in place over \p sel, gathered also one
// batch per measure (a build's per-(group, measure) target tasks); below
// the lane thresholds (\p below_lanes) also against the scalar oracle.
void ExpectGatheredMatchesInPlace(const Table& table,
                                  const SelectionVector& sel,
                                  bool below_lanes) {
  GroupByExecutor kernel(&table, {});
  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  GroupByExecutor scalar(&table, scalar_options);
  auto gathered =
      kernel.GatherMeasures({"md", "mi", "mc"}, kGatherGroups, sel);
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  EXPECT_EQ(&gathered->selection(), &sel);
  for (const auto& batch : GatherBatches()) {
    SCOPED_TRACE(batch[0].ToString() + " sel " + std::to_string(sel.size()));
    auto in_place = kernel.ExecuteBatch(batch, &sel);
    ASSERT_TRUE(in_place.ok()) << in_place.status().ToString();
    auto got = kernel.ExecuteBatch(batch, *gathered);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBatchesBitEqual(*in_place, *got);
    for (const char* measure : {"md", "mi", "mc"}) {
      std::vector<GroupBySpec> one_measure;
      std::vector<GroupByResult> want;
      for (size_t s = 0; s < batch.size(); ++s) {
        if (batch[s].measure != measure) continue;
        one_measure.push_back(batch[s]);
        want.push_back((*in_place)[s]);
      }
      auto split = kernel.ExecuteBatch(one_measure, *gathered);
      ASSERT_TRUE(split.ok()) << split.status().ToString();
      ExpectBatchesBitEqual(want, *split);
    }
    if (below_lanes) {
      auto oracle = scalar.ExecuteBatch(batch, &sel);
      ASSERT_TRUE(oracle.ok());
      ExpectBatchesBitEqual(*oracle, *got);
    }
    // The scalar executor accepts the gathered set and reads in place.
    auto scalar_gathered = scalar.ExecuteBatch(batch, *gathered);
    ASSERT_TRUE(scalar_gathered.ok());
    EXPECT_EQ(scalar_gathered->size(), batch.size());
  }
}

TEST(GroupByKernelGatherTest, RandomSelectionsMatchInPlaceAndOracle) {
  Rng rng(4242);
  for (int iteration = 0; iteration < 20; ++iteration) {
    SCOPED_TRACE("iter " + std::to_string(iteration));
    const Table table =
        MakeGatherTable(rng, 50 + rng.NextBounded(3000), 1 + rng.NextBounded(40));
    auto selection = MakeRandomSelection(rng, table.num_rows());
    const SelectionVector sel = selection ? *selection : table.AllRows();
    ExpectGatheredMatchesInPlace(table, sel, /*below_lanes=*/true);
  }
}

// A selection of >= 2^16 rows puts the few-bin batches on the lane path;
// the 20,000-level dimension takes the dense grid without lanes.
TEST(GroupByKernelGatherTest, LanePathAndHighCardinalityMatchInPlace) {
  Rng rng(65536);
  const Table table = MakeGatherTable(rng, 90'000, 20'000);
  SelectionVector sel;
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    if (rng.NextBernoulli(0.8)) sel.push_back(r);
  }
  ASSERT_GE(sel.size(), size_t{1} << 16);
  ExpectGatheredMatchesInPlace(table, sel, /*below_lanes=*/false);

  // Without lanes (the 20,000-level dimension) gathered also equals the
  // scalar oracle bit for bit.
  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  GroupByExecutor scalar(&table, scalar_options);
  GroupByExecutor kernel(&table, {});
  auto gathered =
      kernel.GatherMeasures({"md", "mi", "mc"}, kGatherGroups, sel);
  ASSERT_TRUE(gathered.ok());
  const std::vector<GroupBySpec> batch = GatherBatches()[0];
  auto oracle = scalar.ExecuteBatch(batch, &sel);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ((*oracle)[0].num_bins(), 20'000u);
  auto got = kernel.ExecuteBatch(batch, *gathered);
  ASSERT_TRUE(got.ok());
  ExpectBatchesBitEqual(*oracle, *got);
}

// The gather is the one place a selection's row ids are checked on the
// gathered path: a bad id fails there, before any scan, with the same
// OutOfRange the in-place kernel and the scalar path return.
TEST(GroupByKernelGatherTest, GatherRejectsBadInputsBeforeAnyScan) {
  Rng rng(3);
  RandomTable random = MakeRandomTable(rng, 50);
  const Table& table = random.table;
  GroupByExecutor kernel(&table, {});
  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  GroupByExecutor scalar(&table, scalar_options);

  const SelectionVector bad_sels[] = {
      {static_cast<uint32_t>(table.num_rows() + 7)},
      {0, static_cast<uint32_t>(table.num_rows())},
      {std::numeric_limits<uint32_t>::max()},
  };
  for (const SelectionVector& bad_sel : bad_sels) {
    auto gathered = kernel.GatherMeasures({"md", "mi"}, kGatherGroups,
                                          bad_sel);
    ASSERT_FALSE(gathered.ok());
    EXPECT_EQ(gathered.status().code(), StatusCode::kOutOfRange);
    auto oracle =
        scalar.Execute({"c", "md", AggregateFunction::kSum, 0}, &bad_sel);
    ASSERT_FALSE(oracle.ok());
    EXPECT_EQ(oracle.status().code(), gathered.status().code());

    ColumnPtr md = *table.ColumnByName("md");
    auto direct = GatheredMeasures::Gather({md.get()}, {}, bad_sel,
                                           table.num_rows());
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), StatusCode::kOutOfRange);
  }

  const SelectionVector sel = {0, 1, 2};
  // Unknown and non-numeric measures fail as ExecuteBatch does.
  auto missing = kernel.GatherMeasures({"missing"}, {}, sel);
  auto missing_batch =
      kernel.ExecuteBatch({{"c", "missing", AggregateFunction::kSum, 0}}, &sel);
  ASSERT_FALSE(missing.ok());
  ASSERT_FALSE(missing_batch.ok());
  EXPECT_EQ(missing.status().code(), missing_batch.status().code());
  auto categorical = kernel.GatherMeasures({"c"}, {}, sel);
  ASSERT_FALSE(categorical.ok());
  EXPECT_EQ(categorical.status().code(), StatusCode::kInvalidArgument);
  // So do unknown dimensions and bin counts a dimension does not take.
  for (const std::pair<std::string, int32_t>& bad_group :
       {std::pair<std::string, int32_t>{"missing", 0}, {"c", 3}, {"x", 0}}) {
    SCOPED_TRACE(bad_group.first + " " + std::to_string(bad_group.second));
    auto staged = kernel.GatherMeasures({"md"}, {bad_group}, sel);
    auto batch = kernel.ExecuteBatch(
        {{bad_group.first, "md", AggregateFunction::kSum, bad_group.second}},
        &sel);
    ASSERT_FALSE(staged.ok());
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(staged.status().code(), batch.status().code());
    EXPECT_EQ(staged.status().message(), batch.status().message());
  }

  // A spec whose measure was not gathered, or whose (dimension, bins) was
  // not staged, is refused, not read in place.
  auto gathered = kernel.GatherMeasures({"md"}, {{"c", 0}}, sel);
  ASSERT_TRUE(gathered.ok());
  auto ungathered =
      kernel.ExecuteBatch({{"c", "mi", AggregateFunction::kSum, 0}}, *gathered);
  ASSERT_FALSE(ungathered.ok());
  EXPECT_EQ(ungathered.status().code(), StatusCode::kInvalidArgument);
  for (const GroupBySpec& unstaged :
       {GroupBySpec{"x", "md", AggregateFunction::kSum, 7},
        GroupBySpec{"i", "md", AggregateFunction::kSum, 4}}) {
    auto got = kernel.ExecuteBatch({unstaged}, *gathered);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
  // Batch validation still applies.
  EXPECT_FALSE(kernel.ExecuteBatch({}, *gathered).ok());
}

// ---------------------------------------------------------------------------
// KernelColumnRange: the typed range scan must be bit-identical to a
// sequential min/max fold (associativity), across types and null shapes.
// ---------------------------------------------------------------------------

TEST(KernelColumnRangeTest, MatchesSequentialScanOnRandomColumns) {
  Rng rng(41);
  for (int iteration = 0; iteration < 60; ++iteration) {
    const size_t rows = rng.NextBounded(300);
    const bool use_int = rng.NextBernoulli(0.5);
    const double null_rate = rng.NextBernoulli(0.4) ? 0.2 : 0.0;
    auto schema = *Schema::Make({
        {"x", use_int ? DataType::kInt64 : DataType::kDouble,
         FieldRole::kDimension},
    });
    TableBuilder b(schema);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < rows; ++r) {
      if (rng.NextBernoulli(null_rate)) {
        ASSERT_TRUE(b.AppendRow({Value()}).ok());
        continue;
      }
      if (use_int) {
        const int64_t v = rng.NextInt64(-5000, 5000);
        lo = std::min(lo, static_cast<double>(v));
        hi = std::max(hi, static_cast<double>(v));
        ASSERT_TRUE(b.AppendRow({Value(v)}).ok());
      } else {
        const double v = rng.NextGaussian() * 1e6;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        ASSERT_TRUE(b.AppendRow({Value(v)}).ok());
      }
    }
    Table table = *b.Build();
    auto column = table.ColumnByName("x");
    ASSERT_TRUE(column.ok());
    auto range = KernelColumnRange(column->get());
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(range->first, lo) << "iter " << iteration;
    EXPECT_EQ(range->second, hi) << "iter " << iteration;
  }
}

TEST(KernelColumnRangeTest, RejectsNonNumericColumns) {
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
  });
  TableBuilder b(schema);
  ASSERT_TRUE(b.AppendRow({Value("a")}).ok());
  Table table = *b.Build();
  auto column = table.ColumnByName("c");
  ASSERT_TRUE(column.ok());
  auto range = KernelColumnRange(column->get());
  EXPECT_FALSE(range.ok());
  EXPECT_TRUE(range.status().IsInvalidArgument());
}

}  // namespace
}  // namespace vs::data
