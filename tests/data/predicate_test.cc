#include "data/predicate.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace vs::data {
namespace {

Table TestTable() {
  auto schema = *Schema::Make({
      {"city", DataType::kString, FieldRole::kDimension},
      {"age", DataType::kInt64, FieldRole::kMeasure},
      {"score", DataType::kDouble, FieldRole::kMeasure},
  });
  TableBuilder b(schema);
  // row 0..5
  EXPECT_TRUE(b.AppendRow({Value("nyc"), Value(int64_t{25}), Value(0.5)}).ok());
  EXPECT_TRUE(b.AppendRow({Value("sf"), Value(int64_t{30}), Value(0.9)}).ok());
  EXPECT_TRUE(b.AppendRow({Value("nyc"), Value(int64_t{35}), Value(0.1)}).ok());
  EXPECT_TRUE(b.AppendRow({Value("la"), Value(int64_t{40}), Value(0.7)}).ok());
  EXPECT_TRUE(b.AppendRow({Value(), Value(int64_t{45}), Value(0.3)}).ok());
  EXPECT_TRUE(b.AppendRow({Value("sf"), Value(), Value(0.6)}).ok());
  return *b.Build();
}

TEST(PredicateTest, NumericComparisons) {
  Table t = TestTable();
  auto sel = SelectRows(t, Compare("age", CompareOp::kGe, Value(int64_t{35})));
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelectionVector{2, 3, 4}));

  sel = SelectRows(t, Compare("age", CompareOp::kLt, Value(int64_t{30})));
  EXPECT_EQ(*sel, (SelectionVector{0}));

  sel = SelectRows(t, Compare("score", CompareOp::kEq, Value(0.7)));
  EXPECT_EQ(*sel, (SelectionVector{3}));

  sel = SelectRows(t, Compare("age", CompareOp::kNe, Value(int64_t{25})));
  // Null age (row 5) never matches, even under !=.
  EXPECT_EQ(*sel, (SelectionVector{1, 2, 3, 4}));
}

TEST(PredicateTest, CategoricalEquality) {
  Table t = TestTable();
  auto sel = SelectRows(t, Compare("city", CompareOp::kEq, Value("nyc")));
  EXPECT_EQ(*sel, (SelectionVector{0, 2}));

  sel = SelectRows(t, Compare("city", CompareOp::kNe, Value("nyc")));
  // Null city (row 4) excluded.
  EXPECT_EQ(*sel, (SelectionVector{1, 3, 5}));
}

TEST(PredicateTest, CategoricalEqualityAgainstUnknownLabel) {
  Table t = TestTable();
  auto sel = SelectRows(t, Compare("city", CompareOp::kEq, Value("tokyo")));
  EXPECT_TRUE(sel->empty());
  sel = SelectRows(t, Compare("city", CompareOp::kNe, Value("tokyo")));
  EXPECT_EQ(*sel, (SelectionVector{0, 1, 2, 3, 5}));
}

TEST(PredicateTest, CategoricalOrderingIsLexicographic) {
  Table t = TestTable();
  auto sel = SelectRows(t, Compare("city", CompareOp::kLt, Value("nyc")));
  EXPECT_EQ(*sel, (SelectionVector{3}));  // only "la"
}

TEST(PredicateTest, InSetCategorical) {
  Table t = TestTable();
  auto sel = SelectRows(t, InSet("city", {Value("sf"), Value("la"),
                                          Value("unknown")}));
  EXPECT_EQ(*sel, (SelectionVector{1, 3, 5}));
}

TEST(PredicateTest, InSetNumeric) {
  Table t = TestTable();
  auto sel = SelectRows(t, InSet("age", {Value(int64_t{25}),
                                         Value(int64_t{45})}));
  EXPECT_EQ(*sel, (SelectionVector{0, 4}));
}

TEST(PredicateTest, BetweenIsHalfOpen) {
  Table t = TestTable();
  auto sel = SelectRows(t, Between("age", 30.0, 40.0));
  EXPECT_EQ(*sel, (SelectionVector{1, 2}));  // 40 excluded
}

TEST(PredicateTest, AndOrNot) {
  Table t = TestTable();
  auto nyc = Compare("city", CompareOp::kEq, Value("nyc"));
  auto young = Compare("age", CompareOp::kLe, Value(int64_t{30}));
  auto sel = SelectRows(t, And({nyc, young}));
  EXPECT_EQ(*sel, (SelectionVector{0}));

  sel = SelectRows(t, Or({nyc, young}));
  EXPECT_EQ(*sel, (SelectionVector{0, 1, 2}));

  sel = SelectRows(t, Not(nyc));
  EXPECT_EQ(*sel, (SelectionVector{1, 3, 4, 5}));  // pure complement
}

TEST(PredicateTest, TrueAndEmptyOr) {
  Table t = TestTable();
  auto all = SelectRows(t, True());
  EXPECT_EQ(all->size(), 6u);
  auto none = SelectRows(t, Or({}));
  EXPECT_TRUE(none->empty());
}

TEST(PredicateTest, NullPredicateSelectsEverything) {
  Table t = TestTable();
  auto sel = SelectRows(t, static_cast<const Predicate*>(nullptr));
  EXPECT_EQ(sel->size(), 6u);
}

TEST(PredicateTest, UnknownColumnIsNotFound) {
  Table t = TestTable();
  auto sel = SelectRows(t, Compare("bogus", CompareOp::kEq, Value(1.0)));
  EXPECT_FALSE(sel.ok());
  EXPECT_TRUE(sel.status().IsNotFound());
}

TEST(PredicateTest, TypeMismatchesRejected) {
  Table t = TestTable();
  EXPECT_FALSE(
      SelectRows(t, Compare("city", CompareOp::kEq, Value(1.0))).ok());
  EXPECT_FALSE(
      SelectRows(t, Compare("age", CompareOp::kEq, Value("x"))).ok());
  EXPECT_FALSE(SelectRows(t, Compare("age", CompareOp::kEq, Value())).ok());
  EXPECT_FALSE(SelectRows(t, InSet("city", {Value(1.0)})).ok());
  EXPECT_FALSE(SelectRows(t, Between("city", 0.0, 1.0)).ok());
}

TEST(PredicateTest, ToStringRendersTree) {
  auto p = And({Compare("age", CompareOp::kGe, Value(int64_t{30})),
                Not(Compare("city", CompareOp::kEq, Value("nyc")))});
  EXPECT_EQ(p->ToString(), "(age >= 30 AND NOT city == nyc)");
}

// Null-free int64/double columns take a typed loop; columns with nulls
// take the null-aware view loop.  Each "*n" column below holds the same
// cells as its null-free twin except for a few nulls, so on the rows where
// both are valid the two loops must agree for every operator; nulls and
// NaN never match a BETWEEN.
Table TwinColumnsTable() {
  auto schema = *Schema::Make({
      {"i", DataType::kInt64, FieldRole::kMeasure},
      {"in", DataType::kInt64, FieldRole::kMeasure},
      {"d", DataType::kDouble, FieldRole::kMeasure},
      {"dn", DataType::kDouble, FieldRole::kMeasure},
  });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> doubles = {-inf, -2.5, -0.0, 0.0,  1.0, 1.5,
                                       2.0,  2.5,  nan,  3.0,  inf, 1e300};
  const std::vector<int64_t> ints = {
      std::numeric_limits<int64_t>::min(), -3, -1, 0, 1, 2, 2, 3, 4,
      (int64_t{1} << 53) + 1, 7, std::numeric_limits<int64_t>::max()};
  TableBuilder b(schema);
  for (size_t r = 0; r < 3 * doubles.size(); ++r) {
    const size_t k = (r * 7) % doubles.size();
    std::vector<Value> cells = {Value(ints[k]), Value(ints[k]),
                                Value(doubles[k]), Value(doubles[k])};
    if (r % 5 == 3) cells[1] = cells[3] = Value();
    EXPECT_TRUE(b.AppendRow(cells).ok());
  }
  return *b.Build();
}

// The rows of \p typed that are also valid in \p with_nulls.
SelectionVector KeepValid(const SelectionVector& typed, const Table& t,
                          const std::string& with_nulls) {
  ColumnPtr col = *t.ColumnByName(with_nulls);
  SelectionVector out;
  for (uint32_t r : typed) {
    if (!col->IsNull(r)) out.push_back(r);
  }
  return out;
}

TEST(PredicateTest, TypedAndNullAwareLoopsAgree) {
  Table t = TwinColumnsTable();
  const std::pair<const char*, const char*> twins[] = {{"i", "in"},
                                                       {"d", "dn"}};
  const double literals[] = {-2.5, 0.0, 2.0, 2.25, 3.0, 9007199254740993.0};
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (const auto& [dense, nullable] : twins) {
    for (double lit : literals) {
      for (CompareOp op : ops) {
        SCOPED_TRACE(std::string(dense) + " " + CompareOpName(op) + " " +
                     std::to_string(lit));
        auto typed = SelectRows(t, Compare(dense, op, Value(lit)));
        auto view = SelectRows(t, Compare(nullable, op, Value(lit)));
        ASSERT_TRUE(typed.ok());
        ASSERT_TRUE(view.ok());
        EXPECT_EQ(KeepValid(*typed, t, nullable), *view);
      }
      for (double hi : {lit, lit + 0.5, lit + 3.0}) {
        SCOPED_TRACE(std::string(dense) + " in [" + std::to_string(lit) +
                     ", " + std::to_string(hi) + ")");
        auto typed = SelectRows(t, Between(dense, lit, hi));
        auto view = SelectRows(t, Between(nullable, lit, hi));
        ASSERT_TRUE(typed.ok());
        ASSERT_TRUE(view.ok());
        EXPECT_EQ(KeepValid(*typed, t, nullable), *view);
        // Two-valued, half-open: lo <= v < hi, so NaN and null never match.
        for (const char* column : {dense, nullable}) {
          ColumnPtr col = *t.ColumnByName(column);
          NumericColumnView cells = *NumericColumnView::Wrap(col.get());
          auto sel = SelectRows(t, Between(column, lit, hi));
          SelectionVector want;
          for (uint32_t r = 0; r < t.num_rows(); ++r) {
            if (!cells.IsNull(r) && cells.at(r) >= lit && cells.at(r) < hi) {
              want.push_back(r);
            }
          }
          EXPECT_EQ(*sel, want) << column;
        }
      }
    }
  }

  // NaN matches no comparison on either loop, as in BETWEEN: cells
  // {1, NaN, 2}, the null-aware twin with a trailing null.
  auto schema = *Schema::Make({{"d", DataType::kDouble, FieldRole::kMeasure},
                               {"dn", DataType::kDouble, FieldRole::kMeasure}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TableBuilder b(schema);
  for (double v : {1.0, nan, 2.0}) {
    EXPECT_TRUE(b.AppendRow({Value(v), Value(v)}).ok());
  }
  EXPECT_TRUE(b.AppendRow({Value(1.0), Value()}).ok());
  Table cells = *b.Build();
  const std::pair<CompareOp, SelectionVector> verdicts[] = {
      {CompareOp::kEq, {0}}, {CompareOp::kNe, {2}}, {CompareOp::kLt, {}},
      {CompareOp::kLe, {0}}, {CompareOp::kGt, {2}}, {CompareOp::kGe, {0, 2}}};
  for (const auto& [op, want] : verdicts) {
    SCOPED_TRACE(std::string("x ") + CompareOpName(op) + " 1");
    SelectionVector typed = *SelectRows(cells, Compare("d", op, Value(1.0)));
    EXPECT_EQ(KeepValid(typed, cells, "dn"), want);
    EXPECT_EQ(*SelectRows(cells, Compare("dn", op, Value(1.0))), want);
  }
}

TEST(PredicateTest, SelectRowsShapes) {
  auto schema = *Schema::Make({{"v", DataType::kDouble, FieldRole::kMeasure}});
  TableBuilder b(schema);
  for (int r = 0; r < 9; ++r) {
    EXPECT_TRUE(b.AppendRow({Value(static_cast<double>(r))}).ok());
  }
  Table t = *b.Build();
  EXPECT_EQ(*SelectRows(t, Between("v", 0.0, 9.0)),
            (SelectionVector{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(SelectRows(t, Between("v", 20.0, 30.0))->empty());
  EXPECT_EQ(*SelectRows(t, Between("v", 8.0, 9.0)), (SelectionVector{8}));
  EXPECT_EQ(*SelectRows(t, Between("v", 0.0, 1.0)), (SelectionVector{0}));
  EXPECT_EQ(*SelectRows(t, Or({Between("v", 0.0, 1.0),
                               Between("v", 4.0, 6.0),
                               Between("v", 8.0, 9.0)})),
            (SelectionVector{0, 4, 5, 8}));

  Table empty = *TableBuilder(schema).Build();
  EXPECT_TRUE(SelectRows(empty, Between("v", 0.0, 1.0))->empty());
  EXPECT_TRUE(SelectRows(empty, True())->empty());
}

TEST(CompareOpTest, Names) {
  EXPECT_EQ(CompareOpName(CompareOp::kEq), "==");
  EXPECT_EQ(CompareOpName(CompareOp::kNe), "!=");
  EXPECT_EQ(CompareOpName(CompareOp::kLe), "<=");
}

}  // namespace
}  // namespace vs::data
