/// Oracle and robustness tests: vectorized operators checked against
/// naive row-at-a-time reimplementations on randomized inputs, plus
/// corruption/fuzz robustness of the parsers and the binary format.

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/groupby.h"
#include "data/io.h"
#include "data/predicate.h"
#include "data/query.h"
#include "ml/linear_regression.h"
#include "stats/distance.h"

namespace vs {
namespace {

// ---------------------------------------------------------------------------
// Predicate oracle: SelectRows vs a naive per-row evaluator.

data::Table RandomTable(uint64_t seed, size_t rows) {
  auto schema = *data::Schema::Make({
      {"cat", data::DataType::kString, data::FieldRole::kDimension},
      {"num", data::DataType::kDouble, data::FieldRole::kMeasure},
      {"count", data::DataType::kInt64, data::FieldRole::kMeasure},
  });
  data::TableBuilder b(schema);
  Rng rng(seed);
  const char* labels[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    data::Value cat = rng.NextBernoulli(0.1)
                          ? data::Value()
                          : data::Value(labels[rng.NextBounded(4)]);
    data::Value num = rng.NextBernoulli(0.1)
                          ? data::Value()
                          : data::Value(rng.NextDouble() * 10.0);
    data::Value count = rng.NextBernoulli(0.1)
                            ? data::Value()
                            : data::Value(rng.NextInt64(-5, 5));
    EXPECT_TRUE(b.AppendRow({cat, num, count}).ok());
  }
  return *b.Build();
}

/// Naive evaluation of the same predicate semantics row by row.
bool NaiveCompare(const data::Value& cell, data::CompareOp op,
                  const data::Value& literal) {
  if (cell.is_null()) return false;
  const int cmp = cell.Compare(literal);
  switch (op) {
    case data::CompareOp::kEq:
      return cmp == 0;
    case data::CompareOp::kNe:
      return cmp != 0;
    case data::CompareOp::kLt:
      return cmp < 0;
    case data::CompareOp::kLe:
      return cmp <= 0;
    case data::CompareOp::kGt:
      return cmp > 0;
    case data::CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

class PredicateOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateOracle, VectorizedMatchesNaive) {
  data::Table t = RandomTable(GetParam(), 300);
  Rng rng(GetParam() ^ 0xf00dULL);
  const char* labels[] = {"a", "b", "c", "d", "zz"};

  for (int trial = 0; trial < 20; ++trial) {
    // Random leaf: categorical or numeric comparison.
    const auto op = static_cast<data::CompareOp>(rng.NextBounded(6));
    const bool categorical = rng.NextBernoulli(0.5);
    std::string column = categorical ? "cat" : (rng.NextBernoulli(0.5)
                                                    ? "num"
                                                    : "count");
    data::Value literal =
        categorical ? data::Value(labels[rng.NextBounded(5)])
                    : data::Value(rng.NextDouble() * 10.0 - 1.0);
    auto predicate = data::Compare(column, op, literal);

    auto fast = data::SelectRows(t, predicate);
    ASSERT_TRUE(fast.ok());
    data::SelectionVector naive;
    const size_t col = *t.schema().FieldIndex(column);
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      if (NaiveCompare(t.GetValue(r, col), op, literal)) {
        naive.push_back(r);
      }
    }
    EXPECT_EQ(*fast, naive)
        << column << " " << data::CompareOpName(op) << " "
        << literal.ToString();
  }
}

TEST_P(PredicateOracle, BooleanCombinatorsMatchSetAlgebra) {
  data::Table t = RandomTable(GetParam() + 500, 200);
  auto p1 = data::Compare("num", data::CompareOp::kGe, data::Value(5.0));
  auto p2 = data::Compare("cat", data::CompareOp::kEq, data::Value("a"));

  auto s1 = *data::SelectRows(t, p1);
  auto s2 = *data::SelectRows(t, p2);
  auto s_and = *data::SelectRows(t, data::And({p1, p2}));
  auto s_or = *data::SelectRows(t, data::Or({p1, p2}));
  auto s_not1 = *data::SelectRows(t, data::Not(p1));

  // AND = intersection, OR = union, NOT = complement.
  data::SelectionVector expected_and;
  std::set_intersection(s1.begin(), s1.end(), s2.begin(), s2.end(),
                        std::back_inserter(expected_and));
  EXPECT_EQ(s_and, expected_and);

  data::SelectionVector expected_or;
  std::set_union(s1.begin(), s1.end(), s2.begin(), s2.end(),
                 std::back_inserter(expected_or));
  EXPECT_EQ(s_or, expected_or);

  EXPECT_EQ(s1.size() + s_not1.size(), t.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateOracle,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Group-by oracle: executor vs naive per-row accumulation.

class GroupByOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupByOracle, ExecutorMatchesNaive) {
  data::Table t = RandomTable(GetParam() + 1000, 400);
  data::GroupByExecutor executor(&t);
  const auto* cat = *t.CategoricalColumnByName("cat");
  const size_t num_col = *t.schema().FieldIndex("num");

  for (data::AggregateFunction f : data::AllAggregateFunctions()) {
    auto fast = executor.Execute({"cat", "num", f, 0}, nullptr);
    ASSERT_TRUE(fast.ok());
    std::vector<data::AggregateAccumulator> naive(cat->cardinality());
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      if (cat->IsNull(r)) continue;
      data::Value v = t.GetValue(r, num_col);
      if (v.is_null()) continue;
      naive[cat->code(r)].Add(v.dbl());
    }
    for (size_t g = 0; g < naive.size(); ++g) {
      EXPECT_NEAR(fast->values[g], naive[g].Finalize(f), 1e-9)
          << data::AggregateFunctionName(f) << " group " << g;
      EXPECT_EQ(fast->counts()[g], naive[g].count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupByOracle,
                         ::testing::Range<uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// EMD oracle: the prefix-sum formula vs a naive sequential-transport
// simulation (optimal in 1-D).

TEST(EmdOracle, PrefixFormulaMatchesSequentialTransport) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t bins = 2 + rng.NextBounded(8);
    std::vector<double> p(bins);
    std::vector<double> q(bins);
    double ps = 0.0;
    double qs = 0.0;
    for (size_t i = 0; i < bins; ++i) {
      p[i] = rng.NextDouble();
      q[i] = rng.NextDouble();
      ps += p[i];
      qs += q[i];
    }
    for (size_t i = 0; i < bins; ++i) {
      p[i] /= ps;
      q[i] /= qs;
    }
    // Naive: sweep left to right, carrying surplus/deficit one step at a
    // time; each carried unit costs 1 per step (optimal in 1-D).
    double cost = 0.0;
    double carry = 0.0;
    for (size_t i = 0; i < bins; ++i) {
      carry += p[i] - q[i];
      cost += std::fabs(carry);
    }
    auto emd = stats::EarthMoversDistance(stats::Distribution{p},
                                          stats::Distribution{q});
    ASSERT_TRUE(emd.ok());
    EXPECT_NEAR(*emd, cost, 1e-12);
  }
}

TEST(EmdOracle, ZeroPaddingInvariance) {
  stats::Distribution p{{0.2, 0.5, 0.3}};
  stats::Distribution q{{0.6, 0.1, 0.3}};
  stats::Distribution p_pad{{0.0, 0.2, 0.5, 0.3, 0.0}};
  stats::Distribution q_pad{{0.0, 0.6, 0.1, 0.3, 0.0}};
  EXPECT_NEAR(*stats::EarthMoversDistance(p, q),
              *stats::EarthMoversDistance(p_pad, q_pad), 1e-12);
}

// ---------------------------------------------------------------------------
// Robustness: corrupted binary tables and fuzzed CSV must never crash.

TEST(CorruptionRobustness, RandomByteFlipsNeverCrashTableIo) {
  data::DiabetesOptions options;
  options.num_rows = 200;
  auto t = data::GenerateDiabetes(options);
  std::string bytes = *data::SerializeTable(*t);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = bytes;
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(corrupted.size());
      corrupted[pos] = static_cast<char>(rng.NextBounded(256));
    }
    auto result = data::DeserializeTable(corrupted);  // ok or error, no UB
    if (result.ok()) {
      EXPECT_LE(result->num_rows(), 1000u);
    }
  }
}

TEST(CorruptionRobustness, FuzzedSqlNeverCrashes) {
  Rng rng(7);
  const char* tokens[] = {"SELECT", "FROM",  "WHERE", "GROUP", "BY",
                          "AND",    "IN",    "BETWEEN", "BINS", "SUM",
                          "(",      ")",     ",",     "=",     "<=",
                          "'x'",    "3.5",   "-2",    "col",   "*",
                          "<>",     "''",    "1e999", "."};
  for (int trial = 0; trial < 500; ++trial) {
    std::string sql;
    const size_t len = 1 + rng.NextBounded(15);
    for (size_t i = 0; i < len; ++i) {
      sql += tokens[rng.NextBounded(sizeof(tokens) / sizeof(tokens[0]))];
      sql += ' ';
    }
    auto result = data::ParseQuery(sql);  // must return, not crash
    (void)result;
    auto filter = data::ParseFilter(sql);
    (void)filter;
  }
}

TEST(CorruptionRobustness, FuzzedCsvNeverCrashes) {
  Rng rng(5);
  const char alphabet[] = "abc,\"\n\r0129.-x\t;'";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const size_t len = rng.NextBounded(200);
    for (size_t i = 0; i < len; ++i) {
      text += alphabet[rng.NextBounded(sizeof(alphabet) - 1)];
    }
    auto result = data::ReadCsv(text, {});  // must return, not crash
    (void)result;
  }
}

// ---------------------------------------------------------------------------
// Order invariance: the utility estimator fit does not depend on label
// arrival order.

TEST(OrderInvariance, LinearFitIsPermutationInvariant) {
  Rng rng(11);
  const size_t n = 24;
  ml::Matrix x(n, 4);
  ml::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 4; ++j) x(i, j) = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  ml::LinearRegression forward;
  ASSERT_TRUE(forward.Fit(x, y).ok());

  auto perm = rng.Permutation(n);
  ml::Matrix x2(n, 4);
  ml::Vector y2(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 4; ++j) x2(i, j) = x(perm[i], j);
    y2[i] = y[perm[i]];
  }
  ml::LinearRegression shuffled;
  ASSERT_TRUE(shuffled.Fit(x2, y2).ok());
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(forward.coefficients()[j], shuffled.coefficients()[j],
                1e-9);
  }
  EXPECT_NEAR(forward.intercept(), shuffled.intercept(), 1e-9);
}

}  // namespace
}  // namespace vs
