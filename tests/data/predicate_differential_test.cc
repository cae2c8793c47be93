/// Differential test of predicate evaluation: seeded random And/Or/Not
/// trees of Compare, Between and InSet leaves over int64, double and
/// categorical columns (with null and NaN cells) are run through
/// SelectRows and through a row-at-a-time reference evaluator written
/// here, and the selections must be equal.  SelectRows narrows candidate
/// lists (an And's later children test only the surviving rows), so the
/// trees also pin that narrowing never changes which rows match, and that
/// a child handed an empty candidate list still reports its errors.
/// SelectRows runs in blocks of kSelectBlockRows rows, inline or on a
/// pool; the pooled cases check that the selection and every error status
/// are the same with no pool and with pools of 0, 1, 3 and 8 workers, at
/// row counts on and around the block boundaries, and when several
/// threads share one pool.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/threadpool.h"
#include "data/predicate.h"

namespace vs::data {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const char* const kLabels[] = {"a", "b", "c", "d"};

/// Columns: "i" int64 with nulls, "i0" null-free int64, "d" double with
/// nulls and NaN, "d0" null-free double with NaN (the typed loops), and
/// "c" categorical with nulls.
Table RandomTable(uint64_t seed, size_t rows) {
  auto schema = *Schema::Make({
      {"i", DataType::kInt64, FieldRole::kMeasure},
      {"i0", DataType::kInt64, FieldRole::kMeasure},
      {"d", DataType::kDouble, FieldRole::kMeasure},
      {"d0", DataType::kDouble, FieldRole::kMeasure},
      {"c", DataType::kString, FieldRole::kDimension},
  });
  const double doubles[] = {-1.5, 0.0, 0.5, 1.0, 2.0, kNaN};
  TableBuilder b(schema);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    auto maybe_null = [&rng](Value v) {
      return rng.NextBernoulli(0.15) ? Value() : v;
    };
    const std::vector<Value> cells = {
        maybe_null(Value(rng.NextInt64(-3, 3))),
        Value(rng.NextInt64(-3, 3)),
        maybe_null(Value(doubles[rng.NextBounded(6)])),
        Value(doubles[rng.NextBounded(6)]),
        maybe_null(Value(kLabels[rng.NextBounded(4)])),
    };
    EXPECT_TRUE(b.AppendRow(cells).ok());
  }
  return *b.Build();
}

/// One predicate tree node, kept alongside its engine predicate so the
/// reference evaluator can walk it row by row.
struct Node {
  enum class Kind { kCompare, kBetween, kInSet, kAnd, kOr, kNot };
  Kind kind = Kind::kAnd;
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;
  double lo = 0.0;
  double hi = 0.0;
  std::vector<Value> values;
  std::vector<Node> children;

  PredicatePtr ToPredicate() const {
    std::vector<PredicatePtr> kids;
    for (const Node& child : children) kids.push_back(child.ToPredicate());
    switch (kind) {
      case Kind::kCompare:
        return Compare(column, op, literal);
      case Kind::kBetween:
        return Between(column, lo, hi);
      case Kind::kInSet:
        return InSet(column, values);
      case Kind::kAnd:
        return And(std::move(kids));
      case Kind::kOr:
        return Or(std::move(kids));
      case Kind::kNot:
        return Not(kids[0]);
    }
    return nullptr;
  }
};

bool Verdict(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// The engine's two-valued semantics, one row at a time: a null cell
/// matches no leaf, a NaN cell matches no comparison, Not complements.
bool Matches(const Node& node, const Table& t, uint32_t row) {
  switch (node.kind) {
    case Node::Kind::kAnd:
      for (const Node& child : node.children) {
        if (!Matches(child, t, row)) return false;
      }
      return true;
    case Node::Kind::kOr:
      for (const Node& child : node.children) {
        if (Matches(child, t, row)) return true;
      }
      return false;
    case Node::Kind::kNot:
      return !Matches(node.children[0], t, row);
    default:
      break;
  }
  ColumnPtr col = *t.ColumnByName(node.column);
  if (col->IsNull(row)) return false;
  if (const auto* cat = dynamic_cast<const CategoricalColumn*>(col.get())) {
    const std::string& label = cat->label(cat->code(row));
    if (node.kind == Node::Kind::kInSet) {
      for (const Value& v : node.values) {
        if (v.str() == label) return true;
      }
      return false;
    }
    const int cmp = label.compare(node.literal.str());
    return Verdict(node.op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0));
  }
  const double v = NumericColumnView::Wrap(col.get())->at(row);
  switch (node.kind) {
    case Node::Kind::kCompare: {
      double lit = 0.0;
      EXPECT_TRUE(node.literal.AsDouble(&lit));
      if (std::isnan(v)) return false;
      return Verdict(node.op, v < lit ? -1 : (v > lit ? 1 : 0));
    }
    case Node::Kind::kBetween:
      return v >= node.lo && v < node.hi;
    case Node::Kind::kInSet:
      for (const Value& value : node.values) {
        double d = 0.0;
        EXPECT_TRUE(value.AsDouble(&d));
        if (v == d) return true;
      }
      return false;
    default:
      return false;
  }
}

SelectionVector Reference(const Node& node, const Table& t) {
  SelectionVector out;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    if (Matches(node, t, r)) out.push_back(r);
  }
  return out;
}

Value RandomLiteral(Rng& rng, bool categorical) {
  if (categorical) {
    const char* labels[] = {"a", "b", "c", "d", "zz", ""};
    return Value(labels[rng.NextBounded(6)]);
  }
  const double literals[] = {-3.0, -1.5, 0.0, 0.5, 1.0, 1.25, 2.0, 3.0};
  return rng.NextBernoulli(0.3) ? Value(rng.NextInt64(-3, 3))
                                : Value(literals[rng.NextBounded(8)]);
}

Node RandomLeaf(Rng& rng) {
  const char* columns[] = {"i", "i0", "d", "d0", "c"};
  Node node;
  node.column = columns[rng.NextBounded(5)];
  const bool categorical = node.column == "c";
  const uint64_t pick = rng.NextBounded(categorical ? 2 : 3);
  if (pick == 0) {
    node.kind = Node::Kind::kCompare;
    node.op = static_cast<CompareOp>(rng.NextBounded(6));
    node.literal = RandomLiteral(rng, categorical);
  } else if (pick == 1) {
    node.kind = Node::Kind::kInSet;
    const uint64_t n = rng.NextBounded(4);
    for (uint64_t k = 0; k < n; ++k) {
      node.values.push_back(RandomLiteral(rng, categorical));
    }
  } else {
    node.kind = Node::Kind::kBetween;
    EXPECT_TRUE(RandomLiteral(rng, false).AsDouble(&node.lo));
    node.hi = node.lo + static_cast<double>(rng.NextBounded(4));
  }
  return node;
}

Node RandomTree(Rng& rng, int depth) {
  if (depth == 0 || rng.NextBernoulli(0.3)) return RandomLeaf(rng);
  Node node;
  const uint64_t pick = rng.NextBounded(3);
  if (pick == 2) {
    node.kind = Node::Kind::kNot;
    node.children.push_back(RandomTree(rng, depth - 1));
    return node;
  }
  node.kind = pick == 0 ? Node::Kind::kAnd : Node::Kind::kOr;
  // Zero children is allowed: an empty And is TRUE, an empty Or FALSE.
  const uint64_t n = rng.NextBounded(4);
  for (uint64_t k = 0; k < n; ++k) {
    node.children.push_back(RandomTree(rng, depth - 1));
  }
  return node;
}

/// Leaves that fail to bind: an unknown column, a type mismatch either
/// way, a null literal.
std::vector<PredicatePtr> BadLeaves() {
  return {
      Compare("bogus", CompareOp::kEq, Value(1.0)),
      Compare("c", CompareOp::kEq, Value(1.0)),
      Compare("i", CompareOp::kLt, Value("x")),
      Compare("d", CompareOp::kEq, Value()),
      InSet("c", {Value("a"), Value(2.0)}),
      InSet("i0", {Value("a")}),
      Between("c", 0.0, 1.0),
      Between("bogus", 0.0, 1.0),
  };
}

class PredicateDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateDifferential, RandomTreesMatchRowAtATime) {
  const Table t = RandomTable(GetParam(), 257);
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    const Node tree = RandomTree(rng, 3);
    const PredicatePtr predicate = tree.ToPredicate();
    SCOPED_TRACE(predicate->ToString());
    auto got = SelectRows(t, predicate);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, Reference(tree, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(PredicateDifferentialTest, EmptyConnectives) {
  const Table t = RandomTable(11, 64);
  EXPECT_EQ(*SelectRows(t, And({})), t.AllRows());
  EXPECT_TRUE(SelectRows(t, Or({}))->empty());
  EXPECT_EQ(*SelectRows(t, Not(Or({}))), t.AllRows());
  EXPECT_TRUE(SelectRows(t, Not(And({})))->empty());
  // An empty And inside a conjunction narrows nothing; inside a
  // disjunction it admits every candidate.
  const PredicatePtr low = Between("d0", -2.0, 0.25);
  EXPECT_EQ(*SelectRows(t, And({low, And({})})), *SelectRows(t, low));
  EXPECT_EQ(*SelectRows(t, Or({low, And({})})), t.AllRows());
  EXPECT_EQ(*SelectRows(t, And({low, Or({})})), SelectionVector{});
}

TEST(PredicateDifferentialTest, NotMatchesNullAndNaNRows) {
  const Table t = RandomTable(12, 200);
  for (const char* column : {"i", "d", "d0", "c"}) {
    SCOPED_TRACE(column);
    ColumnPtr col = *t.ColumnByName(column);
    const bool categorical = std::string(column) == "c";
    const PredicatePtr leaf =
        categorical ? Compare(column, CompareOp::kEq, Value("a"))
                    : Compare(column, CompareOp::kEq, Value(1.0));
    const SelectionVector matched = *SelectRows(t, leaf);
    const SelectionVector negated = *SelectRows(t, Not(leaf));
    // Two-valued: every row lands on exactly one side, so null and NaN
    // rows (which match no comparison) all satisfy the Not.
    EXPECT_EQ(matched.size() + negated.size(), t.num_rows());
    size_t odd_rows = 0;
    for (uint32_t r : negated) {
      if (col->IsNull(r)) {
        ++odd_rows;
      } else if (!categorical &&
                 std::isnan(NumericColumnView::Wrap(col.get())->at(r))) {
        ++odd_rows;
      }
    }
    EXPECT_GT(odd_rows, 0u);
    // Not narrows its own candidates: inside an And it complements only
    // the rows the earlier children kept.
    const PredicatePtr some = Between("i0", -1.0, 2.0);
    const Node want = [&] {
      Node tree;
      tree.kind = Node::Kind::kAnd;
      Node between;
      between.kind = Node::Kind::kBetween;
      between.column = "i0";
      between.lo = -1.0;
      between.hi = 2.0;
      tree.children.push_back(between);
      Node negation;
      negation.kind = Node::Kind::kNot;
      Node cmp;
      cmp.kind = Node::Kind::kCompare;
      cmp.column = column;
      cmp.op = CompareOp::kEq;
      cmp.literal = categorical ? Value("a") : Value(1.0);
      negation.children.push_back(cmp);
      tree.children.push_back(negation);
      return tree;
    }();
    EXPECT_EQ(*SelectRows(t, And({some, Not(leaf)})), Reference(want, t));
  }
}

TEST(PredicateDifferentialTest, ChildErrorsSurviveEmptyCandidates) {
  const Table t = RandomTable(13, 100);
  // No row lies in [100, 200), so every later conjunct gets an empty
  // candidate list and must still validate its column and literal.
  const PredicatePtr none = Between("d0", 100.0, 200.0);
  ASSERT_TRUE(SelectRows(t, none)->empty());
  const std::vector<PredicatePtr> bad_leaves = BadLeaves();
  for (const PredicatePtr& bad : bad_leaves) {
    SCOPED_TRACE(bad->ToString());
    const auto direct = SelectRows(t, bad);
    ASSERT_FALSE(direct.ok());
    const PredicatePtr wrapped[] = {
        And({none, bad}),
        And({none, Or({bad})}),
        And({none, Not(bad)}),
        And({none, And({Between("i0", 0.0, 1.0), bad})}),
        Or({none, bad}),
        Not(And({none, bad})),
    };
    for (const PredicatePtr& p : wrapped) {
      SCOPED_TRACE(p->ToString());
      const auto got = SelectRows(t, p);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), direct.status().code());
      EXPECT_EQ(got.status().message(), direct.status().message());
    }
  }
  // The same holds on a table with no rows at all.
  const Table empty = RandomTable(14, 0);
  EXPECT_TRUE(SelectRows(empty, And({}))->empty());
  EXPECT_FALSE(SelectRows(empty, And({none, bad_leaves[0]})).ok());
  EXPECT_FALSE(SelectRows(empty, bad_leaves[1]).ok());
}

/// SelectRows with no pool, then on pools of 0, 1, 3 and 8 workers.
class SelectPools {
 public:
  std::vector<ThreadPool*> all() {
    return {nullptr, &inline_, &one_, &three_, &eight_};
  }

 private:
  ThreadPool inline_{0};
  ThreadPool one_{1};
  ThreadPool three_{3};
  ThreadPool eight_{8};
};

class PooledSelectRows : public ::testing::TestWithParam<size_t> {};

TEST_P(PooledSelectRows, EveryPoolMatchesRowAtATime) {
  const size_t rows = GetParam();
  const Table t = RandomTable(rows + 21, rows);
  SelectPools pools;
  Rng rng(rows * 7919 + 5);
  for (int trial = 0; trial < 12; ++trial) {
    const Node tree = RandomTree(rng, 3);
    const PredicatePtr predicate = tree.ToPredicate();
    SCOPED_TRACE(predicate->ToString());
    const SelectionVector want = Reference(tree, t);
    for (ThreadPool* pool : pools.all()) {
      SCOPED_TRACE(pool == nullptr ? "no pool"
                                   : std::to_string(pool->num_threads()));
      auto got = SelectRows(t, predicate, pool);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, want);
    }
  }
  for (ThreadPool* pool : pools.all()) {
    EXPECT_EQ(*SelectRows(t, True(), pool), t.AllRows());
    EXPECT_TRUE(SelectRows(t, Or({}), pool)->empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    RowCounts, PooledSelectRows,
    ::testing::Values(size_t{0}, size_t{1}, kSelectBlockRows - 1,
                      kSelectBlockRows, kSelectBlockRows + 1,
                      3 * kSelectBlockRows + 5, size_t{200000}));

TEST(PooledSelectRowsTest, ErrorStatusesMatchForEveryPool) {
  const Table t = RandomTable(31, 3 * kSelectBlockRows + 5);
  SelectPools pools;
  const PredicatePtr some = Between("d0", -2.0, 0.25);
  for (const PredicatePtr& bad : BadLeaves()) {
    for (const PredicatePtr& p :
         {bad, And({some, bad}), Or({some, Not(bad)}), Not(And({bad}))}) {
      SCOPED_TRACE(p->ToString());
      const auto direct = SelectRows(t, p);
      ASSERT_FALSE(direct.ok());
      for (ThreadPool* pool : pools.all()) {
        const auto got = SelectRows(t, p, pool);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), direct.status().code());
        EXPECT_EQ(got.status().message(), direct.status().message());
      }
    }
  }
}

TEST(PooledSelectRowsTest, ConcurrentCallsShareOnePool) {
  const Table t = RandomTable(32, 3 * kSelectBlockRows + 5);
  ThreadPool pool(3);
  constexpr int kThreads = 4;
  std::vector<PredicatePtr> predicates;
  std::vector<SelectionVector> want;
  Rng rng(99);
  for (int i = 0; i < kThreads; ++i) {
    const Node tree = RandomTree(rng, 3);
    predicates.push_back(tree.ToPredicate());
    want.push_back(Reference(tree, t));
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 3; ++round) {
        auto got = SelectRows(t, predicates[i], &pool);
        if (!got.ok() || *got != want[i]) ++mismatches[i];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(mismatches[i], 0) << predicates[i]->ToString();
  }
}

}  // namespace
}  // namespace vs::data
