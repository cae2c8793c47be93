#include "data/query.h"

#include <gtest/gtest.h>

namespace vs::data {
namespace {

Table TestTable() {
  auto schema = *Schema::Make({
      {"region", DataType::kString, FieldRole::kDimension},
      {"year", DataType::kInt64, FieldRole::kDimension},
      {"sales", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  EXPECT_TRUE(
      b.AppendRow({Value("east"), Value(int64_t{2020}), Value(10.0)}).ok());
  EXPECT_TRUE(
      b.AppendRow({Value("west"), Value(int64_t{2020}), Value(20.0)}).ok());
  EXPECT_TRUE(
      b.AppendRow({Value("east"), Value(int64_t{2021}), Value(30.0)}).ok());
  EXPECT_TRUE(
      b.AppendRow({Value("west"), Value(int64_t{2021}), Value(40.0)}).ok());
  return *b.Build();
}

TEST(QueryParserTest, MinimalQuery) {
  auto q = ParseQuery("SELECT SUM(sales) FROM t GROUP BY region");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->table_name, "t");
  EXPECT_EQ(q->query.spec.measure, "sales");
  EXPECT_EQ(q->query.spec.dimension, "region");
  EXPECT_EQ(q->query.spec.func, AggregateFunction::kSum);
  EXPECT_EQ(q->query.spec.num_bins, 0);
  EXPECT_EQ(q->query.filter, nullptr);
}

TEST(QueryParserTest, CaseInsensitiveKeywords) {
  auto q = ParseQuery("select avg(sales) from T group by region");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->query.spec.func, AggregateFunction::kAvg);
}

TEST(QueryParserTest, WhereConjunction) {
  auto q = ParseQuery(
      "SELECT MAX(sales) FROM t WHERE year >= 2021 AND region = 'east' "
      "GROUP BY region");
  ASSERT_TRUE(q.ok());
  ASSERT_NE(q->query.filter, nullptr);
  EXPECT_NE(q->query.filter->ToString().find("AND"), std::string::npos);
}

TEST(QueryParserTest, BinsClause) {
  auto q = ParseQuery("SELECT COUNT(sales) FROM t GROUP BY year BINS 4");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->query.spec.num_bins, 4);
}

TEST(QueryParserTest, BetweenAndIn) {
  auto q = ParseQuery(
      "SELECT SUM(sales) FROM t WHERE sales BETWEEN 10 AND 35 AND region IN "
      "('east', 'west') GROUP BY region");
  ASSERT_TRUE(q.ok());
  ASSERT_NE(q->query.filter, nullptr);
}

TEST(QueryParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SELECT").ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM sales FROM t GROUP BY r").ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(sales) FROM t").ok());  // no GROUP BY
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(sales) FROM t GROUP BY region trailing").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(sales) FROM t GROUP BY region BINS -2").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(sales) FROM t WHERE GROUP BY region").ok());
  EXPECT_FALSE(ParseQuery("SELECT MEDIAN(sales) FROM t GROUP BY r").ok());
}

TEST(QueryParserTest, UnterminatedStringIsError) {
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(s) FROM t WHERE r = 'oops GROUP BY r").ok());
}

TEST(QueryParserTest, CountStarNotSupported) {
  auto q = ParseQuery("SELECT COUNT(*) FROM t GROUP BY region");
  EXPECT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsNotSupported());
}

TEST(RunSqlTest, EndToEndAggregation) {
  Table t = TestTable();
  auto r = RunSql(t, "SELECT SUM(sales) FROM t GROUP BY region");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->labels(), (std::vector<std::string>{"east", "west"}));
  EXPECT_DOUBLE_EQ(r->values[0], 40.0);
  EXPECT_DOUBLE_EQ(r->values[1], 60.0);
}

TEST(RunSqlTest, FilteredAggregation) {
  Table t = TestTable();
  auto r = RunSql(
      t, "SELECT AVG(sales) FROM t WHERE year = 2021 GROUP BY region");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->values[0], 30.0);
  EXPECT_DOUBLE_EQ(r->values[1], 40.0);
}

TEST(RunSqlTest, NumericDimensionWithBins) {
  Table t = TestTable();
  auto r = RunSql(t, "SELECT COUNT(sales) FROM t GROUP BY year BINS 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_bins(), 2u);
  EXPECT_DOUBLE_EQ(r->values[0], 2.0);
  EXPECT_DOUBLE_EQ(r->values[1], 2.0);
}

TEST(RunSqlTest, UnknownColumnSurfacesAtExecution) {
  Table t = TestTable();
  EXPECT_FALSE(RunSql(t, "SELECT SUM(bogus) FROM t GROUP BY region").ok());
}

TEST(ParseFilterTest, SingleCondition) {
  Table t = TestTable();
  auto p = ParseFilter("region = 'east'");
  ASSERT_TRUE(p.ok());
  auto sel = SelectRows(t, *p);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelectionVector{0, 2}));
}

TEST(ParseFilterTest, Conjunction) {
  Table t = TestTable();
  auto p = ParseFilter("region = 'east' AND year >= 2021");
  ASSERT_TRUE(p.ok());
  auto sel = SelectRows(t, *p);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelectionVector{2}));
}

TEST(ParseFilterTest, BetweenAndIn) {
  Table t = TestTable();
  auto p = ParseFilter(
      "sales BETWEEN 15 AND 35 AND region IN ('east', 'west')");
  ASSERT_TRUE(p.ok());
  auto sel = SelectRows(t, *p);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelectionVector{1, 2}));
}

TEST(ParseFilterTest, SyntaxErrors) {
  EXPECT_FALSE(ParseFilter("").ok());
  EXPECT_FALSE(ParseFilter("region =").ok());
  EXPECT_FALSE(ParseFilter("region = 'x' extra").ok());
  EXPECT_FALSE(ParseFilter("AND region = 'x'").ok());
}

TEST(ParseFilterTest, MatchesEquivalentFullQueryFilter) {
  Table t = TestTable();
  auto standalone = ParseFilter("year = 2020");
  auto full = ParseQuery(
      "SELECT SUM(sales) FROM t WHERE year = 2020 GROUP BY region");
  ASSERT_TRUE(standalone.ok() && full.ok());
  auto a = SelectRows(t, *standalone);
  auto b = SelectRows(t, full->query.filter);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

}  // namespace
}  // namespace vs::data
