#include "data/groupby.h"

#include <gtest/gtest.h>

#include "data/predicate.h"

namespace vs::data {
namespace {

Table CategoricalTable() {
  auto schema = *Schema::Make({
      {"color", DataType::kString, FieldRole::kDimension},
      {"v", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  EXPECT_TRUE(b.AppendRow({Value("red"), Value(1.0)}).ok());
  EXPECT_TRUE(b.AppendRow({Value("blue"), Value(2.0)}).ok());
  EXPECT_TRUE(b.AppendRow({Value("red"), Value(3.0)}).ok());
  EXPECT_TRUE(b.AppendRow({Value("green"), Value(4.0)}).ok());
  EXPECT_TRUE(b.AppendRow({Value("blue"), Value(6.0)}).ok());
  return *b.Build();
}

Table NumericDimTable() {
  auto schema = *Schema::Make({
      {"x", DataType::kDouble, FieldRole::kDimension},
      {"v", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  // x in [0, 10]: values 0, 2.5, 5, 7.5, 10
  for (double x : {0.0, 2.5, 5.0, 7.5, 10.0}) {
    EXPECT_TRUE(b.AppendRow({Value(x), Value(x * 10.0)}).ok());
  }
  return *b.Build();
}

TEST(GroupByTest, SumPerCategory) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  auto r = ex.Execute({"color", "v", AggregateFunction::kSum, 0}, nullptr);
  ASSERT_TRUE(r.ok());
  // Dictionary order: red, blue, green.
  EXPECT_EQ(r->labels(),
            (std::vector<std::string>{"red", "blue", "green"}));
  EXPECT_DOUBLE_EQ(r->values[0], 4.0);
  EXPECT_DOUBLE_EQ(r->values[1], 8.0);
  EXPECT_DOUBLE_EQ(r->values[2], 4.0);
  EXPECT_EQ(r->counts(), (std::vector<int64_t>{2, 2, 1}));
  EXPECT_EQ(r->rows_seen, 5);
}

TEST(GroupByTest, AllFiveAggregatesOnOneGroup) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  struct Case {
    AggregateFunction f;
    double red;
  };
  // red values: 1, 3
  for (const auto& [f, expected] :
       {Case{AggregateFunction::kCount, 2.0}, Case{AggregateFunction::kSum, 4.0},
        Case{AggregateFunction::kAvg, 2.0}, Case{AggregateFunction::kMin, 1.0},
        Case{AggregateFunction::kMax, 3.0}}) {
    auto r = ex.Execute({"color", "v", f, 0}, nullptr);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->values[0], expected) << AggregateFunctionName(f);
  }
}

TEST(GroupByTest, SelectionRestrictsRowsButKeepsAllBins) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  SelectionVector sel = {0, 2};  // both red
  auto r = ex.Execute({"color", "v", AggregateFunction::kCount, 0}, &sel);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins(), 3u);  // bins from full table dictionary
  EXPECT_DOUBLE_EQ(r->values[0], 2.0);
  EXPECT_DOUBLE_EQ(r->values[1], 0.0);  // blue empty under selection
  EXPECT_DOUBLE_EQ(r->values[2], 0.0);
  EXPECT_EQ(r->rows_seen, 2);
}

TEST(GroupByTest, EmptySelectionYieldsZeroBins) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  SelectionVector sel;
  auto r = ex.Execute({"color", "v", AggregateFunction::kSum, 0}, &sel);
  ASSERT_TRUE(r.ok());
  for (double v : r->values) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(r->rows_seen, 0);
}

TEST(GroupByTest, NumericBinning) {
  Table t = NumericDimTable();
  GroupByExecutor ex(&t);
  auto r = ex.Execute({"x", "v", AggregateFunction::kCount, 2}, nullptr);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_bins(), 2u);
  // Range [0, 10], width 5: bin0 = [0,5) -> {0, 2.5}, bin1 = [5,10] -> {5, 7.5, 10}.
  EXPECT_DOUBLE_EQ(r->values[0], 2.0);
  EXPECT_DOUBLE_EQ(r->values[1], 3.0);
}

TEST(GroupByTest, MaxValueLandsInLastBin) {
  Table t = NumericDimTable();
  GroupByExecutor ex(&t);
  auto r = ex.Execute({"x", "v", AggregateFunction::kMax, 4}, nullptr);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_bins(), 4u);
  EXPECT_DOUBLE_EQ(r->values[3], 100.0);  // x = 10 -> v = 100 in last bin
}

TEST(GroupByTest, NumericBinsDerivedFromFullTableUnderSelection) {
  Table t = NumericDimTable();
  GroupByExecutor ex(&t);
  SelectionVector sel = {0, 1};  // x = 0, 2.5 only
  auto r = ex.Execute({"x", "v", AggregateFunction::kCount, 2}, &sel);
  ASSERT_TRUE(r.ok());
  // Bin edges still [0,5), [5,10]: both selected rows in bin 0.
  EXPECT_DOUBLE_EQ(r->values[0], 2.0);
  EXPECT_DOUBLE_EQ(r->values[1], 0.0);
}

TEST(GroupByTest, SumsAndSumsqsExposed) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  auto r = ex.Execute({"color", "v", AggregateFunction::kAvg, 0}, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->sums()[0], 4.0);     // red: 1 + 3
  EXPECT_DOUBLE_EQ(r->sumsqs()[0], 10.0);  // 1 + 9
}

TEST(GroupByTest, NullsExcluded) {
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"v", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  ASSERT_TRUE(b.AppendRow({Value("a"), Value(1.0)}).ok());
  ASSERT_TRUE(b.AppendRow({Value(), Value(2.0)}).ok());      // null dim
  ASSERT_TRUE(b.AppendRow({Value("a"), Value()}).ok());      // null measure
  Table t = *b.Build();
  GroupByExecutor ex(&t);
  auto r = ex.Execute({"c", "v", AggregateFunction::kCount, 0}, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->values[0], 1.0);  // only row 0 counts
}

TEST(GroupByTest, ErrorsOnBadSpecs) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  // Categorical dim with bins.
  EXPECT_FALSE(
      ex.Execute({"color", "v", AggregateFunction::kSum, 3}, nullptr).ok());
  // Unknown columns.
  EXPECT_FALSE(
      ex.Execute({"bogus", "v", AggregateFunction::kSum, 0}, nullptr).ok());
  EXPECT_FALSE(
      ex.Execute({"color", "bogus", AggregateFunction::kSum, 0}, nullptr)
          .ok());
  // Non-numeric measure.
  EXPECT_FALSE(
      ex.Execute({"color", "color", AggregateFunction::kSum, 0}, nullptr)
          .ok());
}

TEST(GroupByTest, NumericDimWithoutBinsIsError) {
  Table t = NumericDimTable();
  GroupByExecutor ex(&t);
  EXPECT_FALSE(
      ex.Execute({"x", "v", AggregateFunction::kSum, 0}, nullptr).ok());
}

TEST(GroupByTest, OutOfRangeSelectionIsError) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  SelectionVector sel = {99};
  EXPECT_FALSE(
      ex.Execute({"color", "v", AggregateFunction::kSum, 0}, &sel).ok());
}

TEST(GroupByTest, NumBinsReporting) {
  Table cat = CategoricalTable();
  GroupByExecutor ex(&cat);
  EXPECT_EQ(*ex.NumBins({"color", "v", AggregateFunction::kSum, 0}), 3);
  Table num = NumericDimTable();
  GroupByExecutor ex2(&num);
  EXPECT_EQ(*ex2.NumBins({"x", "v", AggregateFunction::kSum, 7}), 7);
}

TEST(ExecuteBatchTest, MatchesPerSpecExecution) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  std::vector<GroupBySpec> specs;
  for (AggregateFunction f : AllAggregateFunctions()) {
    specs.push_back({"color", "v", f, 0});
  }
  auto batch = ex.ExecuteBatch(specs, nullptr);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    auto single = ex.Execute(specs[s], nullptr);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[s].values, single->values) << specs[s].ToString();
    EXPECT_EQ((*batch)[s].counts(), single->counts());
    EXPECT_EQ((*batch)[s].labels(), single->labels());
    EXPECT_EQ((*batch)[s].rows_seen, single->rows_seen);
  }
}

TEST(ExecuteBatchTest, NumericDimensionWithSelection) {
  Table t = NumericDimTable();
  GroupByExecutor ex(&t);
  SelectionVector sel = {0, 2, 4};
  std::vector<GroupBySpec> specs = {
      {"x", "v", AggregateFunction::kSum, 3},
      {"x", "v", AggregateFunction::kMax, 3},
  };
  auto batch = ex.ExecuteBatch(specs, &sel);
  ASSERT_TRUE(batch.ok());
  for (size_t s = 0; s < specs.size(); ++s) {
    auto single = ex.Execute(specs[s], &sel);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[s].values, single->values);
  }
}

TEST(ExecuteBatchTest, MultipleMeasuresShareTheScan) {
  // Two measures over one dimension in one batch.
  auto schema = *Schema::Make({
      {"c", DataType::kString, FieldRole::kDimension},
      {"a", DataType::kDouble, FieldRole::kMeasure},
      {"b", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder builder(schema);
  ASSERT_TRUE(
      builder.AppendRow({Value("x"), Value(1.0), Value(10.0)}).ok());
  ASSERT_TRUE(
      builder.AppendRow({Value("y"), Value(2.0), Value(20.0)}).ok());
  Table t = *builder.Build();
  GroupByExecutor ex(&t);
  std::vector<GroupBySpec> specs = {
      {"c", "a", AggregateFunction::kSum, 0},
      {"c", "b", AggregateFunction::kSum, 0},
  };
  auto batch = ex.ExecuteBatch(specs, nullptr);
  ASSERT_TRUE(batch.ok());
  EXPECT_DOUBLE_EQ((*batch)[0].values[0], 1.0);
  EXPECT_DOUBLE_EQ((*batch)[1].values[0], 10.0);
}

TEST(ExecuteBatchTest, Validation) {
  Table t = CategoricalTable();
  GroupByExecutor ex(&t);
  EXPECT_FALSE(ex.ExecuteBatch({}, nullptr).ok());
  // Mixed dimensions in one batch.
  std::vector<GroupBySpec> mixed = {
      {"color", "v", AggregateFunction::kSum, 0},
      {"v", "v", AggregateFunction::kSum, 2},
  };
  EXPECT_FALSE(ex.ExecuteBatch(mixed, nullptr).ok());
  // Bad selection.
  SelectionVector bad = {99};
  std::vector<GroupBySpec> ok_specs = {
      {"color", "v", AggregateFunction::kSum, 0}};
  EXPECT_FALSE(ex.ExecuteBatch(ok_specs, &bad).ok());
}

TEST(ExecuteQueryTest, FilterThenGroup) {
  Table t = CategoricalTable();
  AggregateQuery q;
  q.spec = {"color", "v", AggregateFunction::kSum, 0};
  q.filter = Compare("v", CompareOp::kGe, Value(3.0));
  auto r = ExecuteQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->values[0], 3.0);  // red keeps only v=3
  EXPECT_DOUBLE_EQ(r->values[1], 6.0);  // blue keeps only v=6
  EXPECT_DOUBLE_EQ(r->values[2], 4.0);  // green keeps v=4
}

TEST(GroupBySpecTest, ToStringFormat) {
  GroupBySpec s{"d", "m", AggregateFunction::kAvg, 4};
  EXPECT_EQ(s.ToString(), "AVG(m) GROUP BY d [4 bins]");
  GroupBySpec c{"d", "m", AggregateFunction::kCount, 0};
  EXPECT_EQ(c.ToString(), "COUNT(m) GROUP BY d");
}

}  // namespace
}  // namespace vs::data
