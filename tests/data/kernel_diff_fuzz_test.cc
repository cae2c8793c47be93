#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/groupby.h"
#include "data/table.h"
#include "data/value.h"

namespace vs::data {
namespace {

// Corpus-driven differential fuzzer (ctest binary `vs_kernel_diff`): the
// typed kernel against the scalar oracle on adversarial inputs — NaN/Inf
// measures, all-null columns, empty tables, single-row tables, empty
// groups, all-rows-filtered selections and a 20,000-level dimension.
// Kernel runs without lane replication (small inputs, or more than 256
// bins) promise bit-identical results, so the comparison is exact, modulo
// NaN != NaN.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectSameDoubles(const std::vector<double>& oracle,
                       const std::vector<double>& got, const char* what) {
  ASSERT_EQ(oracle.size(), got.size()) << what;
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (std::isnan(oracle[i]) || std::isnan(got[i])) {
      EXPECT_EQ(std::isnan(oracle[i]), std::isnan(got[i]))
          << what << " bin " << i;
    } else {
      EXPECT_EQ(oracle[i], got[i]) << what << " bin " << i;
    }
  }
}

// Runs `spec` on both paths and requires identical outcomes: same status
// on failure, same result on success.
void ExpectDifferentialMatch(const Table& table, const GroupBySpec& spec,
                             const SelectionVector* selection,
                             const std::string& context) {
  SCOPED_TRACE(context + " " + spec.ToString());
  GroupByExecutorOptions scalar_options;
  scalar_options.use_kernel = false;
  GroupByExecutor scalar(&table, scalar_options);
  auto oracle = scalar.Execute(spec, selection);

  GroupByExecutor kernel(&table, {});
  auto got = kernel.Execute(spec, selection);
  ASSERT_EQ(oracle.ok(), got.ok())
      << (oracle.ok() ? got.status().ToString() : oracle.status().ToString());
  if (!oracle.ok()) {
    EXPECT_EQ(oracle.status().code(), got.status().code());
    return;
  }
  EXPECT_EQ(oracle->labels(), got->labels());
  EXPECT_EQ(oracle->counts(), got->counts());
  EXPECT_EQ(oracle->rows_seen, got->rows_seen);
  ExpectSameDoubles(oracle->values, got->values, "values");
  ExpectSameDoubles(oracle->sums(), got->sums(), "sums");
  ExpectSameDoubles(oracle->sumsqs(), got->sumsqs(), "sumsqs");
}

std::vector<GroupBySpec> AllSpecs(const std::string& dimension,
                                  int32_t num_bins,
                                  const std::string& measure) {
  std::vector<GroupBySpec> specs;
  for (AggregateFunction func :
       {AggregateFunction::kCount, AggregateFunction::kSum,
        AggregateFunction::kAvg, AggregateFunction::kMin,
        AggregateFunction::kMax}) {
    specs.push_back({dimension, measure, func, num_bins});
  }
  return specs;
}

Table BuildTable(const std::vector<Value>& c, const std::vector<Value>& m) {
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"m", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  for (size_t r = 0; r < c.size(); ++r) {
    EXPECT_TRUE(b.AppendRow({c[r], m[r]}).ok());
  }
  return *b.Build();
}

TEST(KernelDiffFuzzTest, NanAndInfMeasures) {
  Table table = BuildTable(
      {Value("a"), Value("a"), Value("b"), Value("b"), Value("c"), Value("c")},
      {Value(kNaN), Value(1.0), Value(kInf), Value(-kInf), Value(kNaN),
       Value(kNaN)});
  for (const GroupBySpec& spec : AllSpecs("c", 0, "m")) {
    ExpectDifferentialMatch(table, spec, nullptr, "nan/inf measures");
  }
}

TEST(KernelDiffFuzzTest, InfinityInMeasureUnderSelection) {
  Table table = BuildTable(
      {Value("a"), Value("b"), Value("a"), Value("b")},
      {Value(kInf), Value(1.0), Value(-kInf), Value(kNaN)});
  SelectionVector first_two = {0, 1};
  SelectionVector just_nan = {3};
  for (const GroupBySpec& spec : AllSpecs("c", 0, "m")) {
    ExpectDifferentialMatch(table, spec, &first_two, "inf selection");
    ExpectDifferentialMatch(table, spec, &just_nan, "nan-only selection");
  }
}

TEST(KernelDiffFuzzTest, AllNullMeasure) {
  Table table = BuildTable({Value("a"), Value("b"), Value("a")},
                           {Value(), Value(), Value()});
  for (const GroupBySpec& spec : AllSpecs("c", 0, "m")) {
    ExpectDifferentialMatch(table, spec, nullptr, "all-null measure");
  }
}

TEST(KernelDiffFuzzTest, AllNullDimension) {
  Table table = BuildTable({Value(), Value(), Value()},
                           {Value(1.0), Value(2.0), Value(3.0)});
  for (const GroupBySpec& spec : AllSpecs("c", 0, "m")) {
    ExpectDifferentialMatch(table, spec, nullptr, "all-null dimension");
  }
}

TEST(KernelDiffFuzzTest, EmptyTable) {
  Table table = BuildTable({}, {});
  for (const GroupBySpec& spec : AllSpecs("c", 0, "m")) {
    ExpectDifferentialMatch(table, spec, nullptr, "empty table");
  }
}

TEST(KernelDiffFuzzTest, SingleRowTable) {
  for (const Value& m : {Value(7.5), Value(kNaN), Value(kInf), Value()}) {
    Table table = BuildTable({Value("only")}, {m});
    for (const GroupBySpec& spec : AllSpecs("c", 0, "m")) {
      ExpectDifferentialMatch(table, spec, nullptr, "single row");
    }
  }
}

TEST(KernelDiffFuzzTest, AllRowsFilteredSelection) {
  Table table = BuildTable({Value("a"), Value("b"), Value("c")},
                           {Value(1.0), Value(2.0), Value(3.0)});
  SelectionVector empty;
  for (const GroupBySpec& spec : AllSpecs("c", 0, "m")) {
    ExpectDifferentialMatch(table, spec, &empty, "all rows filtered");
  }
}

// Numeric dimension whose range degenerates (constant, or no non-null
// values at all): empty-group shapes and error parity.
TEST(KernelDiffFuzzTest, DegenerateNumericDimensions) {
  auto schema = *Schema::Make({
      {"x", DataType::kDouble, FieldRole::kDimension},
      {"m", DataType::kDouble, FieldRole::kMeasure},
  });
  {
    TableBuilder b(schema);
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE(b.AppendRow({Value(42.0), Value(double(r))}).ok());
    }
    Table constant = *b.Build();
    for (const GroupBySpec& spec : AllSpecs("x", 6, "m")) {
      ExpectDifferentialMatch(constant, spec, nullptr, "constant dim");
    }
  }
  {
    TableBuilder b(schema);
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(b.AppendRow({Value(), Value(double(r))}).ok());
    }
    Table all_null = *b.Build();
    // Range discovery must fail identically: no non-null values.
    for (const GroupBySpec& spec : AllSpecs("x", 4, "m")) {
      ExpectDifferentialMatch(all_null, spec, nullptr, "null numeric dim");
    }
  }
}

// A 20,000-level dimension (above the 256-bin lane limit, so no lanes)
// over 70,000 rows with NaN/Inf/null measures and null dimensions: exact
// full-table, under a random selection and under an empty one.
TEST(KernelDiffFuzzTest, HighCardinalityDimensionWithNastyMeasures) {
  Rng rng(0x4E20);
  constexpr uint64_t kLevels = 20'000;
  std::vector<Value> c;
  std::vector<Value> m;
  for (uint64_t r = 0; r < 70'000; ++r) {
    const uint64_t code = r < kLevels ? r : rng.NextBounded(kLevels);
    c.push_back(r >= kLevels && rng.NextBernoulli(0.05)
                    ? Value()
                    : Value("L" + std::to_string(code)));
    switch (rng.NextBounded(8)) {
      case 0: m.emplace_back(); break;
      case 1: m.emplace_back(kNaN); break;
      case 2: m.emplace_back(rng.NextBernoulli(0.5) ? kInf : -kInf); break;
      default: m.emplace_back(rng.NextGaussian() * 100.0); break;
    }
  }
  Table table = BuildTable(c, m);
  SelectionVector some;
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    if (rng.NextBernoulli(0.25)) some.push_back(r);
  }
  const SelectionVector none;
  for (const GroupBySpec& spec : AllSpecs("c", 0, "m")) {
    ExpectDifferentialMatch(table, spec, nullptr, "20k levels, all rows");
    ExpectDifferentialMatch(table, spec, &some, "20k levels, selection");
    ExpectDifferentialMatch(table, spec, &none, "20k levels, empty sel");
  }
}

// Min/max are selections, `v < min ? v : min`, so they must pick the very
// value the oracle's AggregateAccumulator::Add picks, sign of zero and
// NaN included, which ExpectSameDoubles cannot see (it treats -0.0 and
// +0.0 as equal and any two NaNs alike).  Each case is one bin fed an
// 8-row run starting at a multiple of 4 (lane 0), so on the lane path a
// bin's first zero sits in its lowest lane.  Checked by bit pattern at one
// lane (1,000 rows) and at four (2^17 rows, 12 bins), in place and through
// gathered measures and staged bins.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameBits(const std::vector<double>& oracle,
                    const std::vector<double>& got, const std::string& what,
                    size_t skip_bin) {
  ASSERT_EQ(oracle.size(), got.size()) << what;
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (i == skip_bin) continue;
    EXPECT_TRUE(SameBits(oracle[i], got[i]))
        << what << " bin " << i << ": oracle " << oracle[i]
        << (std::signbit(oracle[i]) ? " (sign set)" : "") << ", kernel "
        << got[i] << (std::signbit(got[i]) ? " (sign set)" : "");
  }
}

TEST(KernelDiffFuzzTest, MinMaxMatchOracleBitForBit) {
  constexpr double kPosZero = 0.0;
  constexpr double kNegZero = -0.0;
  const std::vector<std::vector<double>> runs = {
      {kNegZero, kPosZero, kPosZero, kPosZero, kPosZero, kPosZero, kPosZero,
       kPosZero},
      {kPosZero, kNegZero, kNegZero, kNegZero, kNegZero, kNegZero, kNegZero,
       kNegZero},
      {kNegZero, kPosZero, kNegZero, kPosZero, kPosZero, kNegZero, kPosZero,
       kNegZero},
      {kNaN, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0},
      {1.0, 2.0, 3.0, kNaN, 4.0, 5.0, 6.0, 7.0},
      {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, kNaN},
      {5.0, kInf, -kInf, 2.0, kNaN, -3.0, 4.0, 1.0},
      {kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf},
      {-kInf, -kInf, -kInf, -kInf, -kInf, -kInf, -kInf, -kInf},
      {kNaN, kNaN, kNaN, kNaN, kNaN, kNaN, kNaN, kNaN},
      // The lane-order bin: +0.0 first (offset 3, lane 3), then -0.0
      // (offset 4, lane 0).
      {1.0, 1.0, 1.0, kPosZero, kNegZero, 1.0, 1.0, 1.0},
  };
  const size_t lane_order_bin = runs.size() - 1;
  for (const size_t rows : {size_t{1'000}, size_t{1} << 17}) {
    const bool lanes = rows >= (size_t{1} << 16);
    SCOPED_TRACE(lanes ? "4 lanes" : "1 lane");
    std::vector<Value> c;
    std::vector<Value> m;
    for (size_t k = 0; k < runs.size(); ++k) {
      for (double v : runs[k]) {
        c.emplace_back("K" + std::to_string(k));
        m.emplace_back(v);
      }
    }
    while (c.size() < rows) {
      c.emplace_back("filler");
      m.emplace_back(static_cast<double>(c.size() % 7));
    }
    const Table table = BuildTable(c, m);
    const GroupBySpec min_spec{"c", "m", AggregateFunction::kMin, 0};
    const GroupBySpec max_spec{"c", "m", AggregateFunction::kMax, 0};

    GroupByExecutorOptions scalar_options;
    scalar_options.use_kernel = false;
    const GroupByExecutor scalar(&table, scalar_options);
    const GroupByExecutor kernel(&table, {});
    auto oracle = scalar.ExecuteBatch({min_spec, max_spec}, nullptr);
    auto in_place = kernel.ExecuteBatch({min_spec, max_spec}, nullptr);
    const SelectionVector all = table.AllRows();
    auto gathered = kernel.GatherMeasures({"m"}, {{"c", 0}}, all);
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(in_place.ok());
    ASSERT_TRUE(gathered.ok());
    auto staged = kernel.ExecuteBatch({min_spec, max_spec}, *gathered);
    ASSERT_TRUE(staged.ok());
    ASSERT_EQ((*oracle)[0].labels()[lane_order_bin],
              "K" + std::to_string(lane_order_bin));

    // On the lane path the lane-order bin is checked on its own below.
    const size_t skip = lanes ? lane_order_bin : runs.size() + 1;
    for (const auto* got : {&*in_place, &*staged}) {
      SCOPED_TRACE(got == &*in_place ? "in place" : "staged");
      ExpectSameBits((*oracle)[0].moments->mins, (*got)[0].moments->mins,
                     "mins", skip);
      ExpectSameBits((*oracle)[0].moments->maxs, (*got)[0].moments->maxs,
                     "maxs", skip);
      ExpectSameBits((*oracle)[0].values, (*got)[0].values, "MIN", skip);
      ExpectSameBits((*oracle)[1].values, (*got)[1].values, "MAX", skip);
      EXPECT_EQ((*oracle)[0].counts(), (*got)[0].counts());
      // Lane merging keeps the lowest lane's zero: -0.0 from lane 0,
      // where the oracle keeps the +0.0 it saw first.
      const double oracle_min = (*oracle)[0].values[lane_order_bin];
      const double got_min = (*got)[0].values[lane_order_bin];
      EXPECT_TRUE(SameBits(oracle_min, kPosZero));
      EXPECT_TRUE(SameBits(got_min, lanes ? kNegZero : kPosZero)) << got_min;
    }
  }
}

// Seeded randomized corpus: 120 tables with NaN/Inf/null injection in
// every column, random selections (often empty), random specs — ~600
// differential cases per run on top of the deterministic corpus above.
TEST(KernelDiffFuzzTest, SeededRandomNastyTables) {
  Rng rng(0xF0220);
  for (int iteration = 0; iteration < 120; ++iteration) {
    auto schema = *Schema::Make({
        {"c", DataType::kString, FieldRole::kDimension},
        {"x", DataType::kDouble, FieldRole::kDimension},
        {"m", DataType::kDouble, FieldRole::kMeasure},
        {"n", DataType::kInt64, FieldRole::kMeasure},
    });
    const size_t rows = rng.NextBounded(40);  // tiny tables hit edges most
    TableBuilder b(schema);
    for (size_t r = 0; r < rows; ++r) {
      Value c = rng.NextBernoulli(0.2)
                    ? Value()
                    : Value("L" + std::to_string(rng.NextBounded(5)));
      // Dimension values stay finite: non-finite bin arithmetic is
      // undefined on both paths and excluded from the contract.
      Value x = rng.NextBernoulli(0.2) ? Value()
                                       : Value(rng.NextDouble() * 8.0 - 4.0);
      Value m;
      switch (rng.NextBounded(5)) {
        case 0: m = Value(); break;
        case 1: m = Value(kNaN); break;
        case 2: m = Value(rng.NextBernoulli(0.5) ? kInf : -kInf); break;
        default: m = Value(rng.NextGaussian()); break;
      }
      Value n = rng.NextBernoulli(0.2) ? Value()
                                       : Value(rng.NextInt64(-9, 9));
      ASSERT_TRUE(b.AppendRow({c, x, m, n}).ok());
    }
    Table table = *b.Build();

    for (int s = 0; s < 5; ++s) {
      GroupBySpec spec;
      spec.dimension = rng.NextBernoulli(0.5) ? "c" : "x";
      spec.num_bins = spec.dimension == "x"
                          ? static_cast<int32_t>(rng.NextInt64(1, 5))
                          : 0;
      spec.measure = rng.NextBernoulli(0.5) ? "m" : "n";
      const AggregateFunction funcs[] = {
          AggregateFunction::kCount, AggregateFunction::kSum,
          AggregateFunction::kAvg, AggregateFunction::kMin,
          AggregateFunction::kMax};
      spec.func = funcs[rng.NextBounded(5)];

      std::optional<SelectionVector> selection;
      if (rng.NextBernoulli(0.5)) {
        selection.emplace();
        for (size_t r = 0; r < rows; ++r) {
          if (rng.NextBernoulli(0.3)) {
            selection->push_back(static_cast<uint32_t>(r));
          }
        }
      }
      ExpectDifferentialMatch(table, spec,
                              selection ? &*selection : nullptr,
                              "fuzz iter " + std::to_string(iteration));
    }
  }
}

}  // namespace
}  // namespace vs::data
