#include "data/predicate.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "common/string_util.h"
#include "common/threadpool.h"

namespace vs::data {

std::string CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

bool ApplyOp(CompareOp op, int cmp) {
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

/// The rows a bound node may keep, all inside one block: rows[0, n)
/// (sorted) when rows is set, else the contiguous ids [first, first + n).
struct RowDomain {
  const uint32_t* rows = nullptr;
  size_t n = 0;
  uint32_t first = 0;
};

/// Block-sized row-id buffers for Or and Not, taken and given back in
/// stack order.  One SelectScratch serves every block a thread claims in
/// one SelectRows call, so a buffer is allocated on first use only.
class SelectScratch {
 public:
  uint32_t* Take() {
    if (taken_ == buffers_.size()) {
      buffers_.emplace_back(new uint32_t[kSelectBlockRows]);
    }
    return buffers_[taken_++].get();
  }
  /// Gives back the \p n buffers taken last.
  void GiveBack(size_t n) { taken_ -= n; }

 private:
  std::vector<std::unique_ptr<uint32_t[]>> buffers_;
  size_t taken_ = 0;
};

/// Writes every row of \p domain for which match(row) holds to \p out, in
/// domain order, and returns the count.  Branch-free: each row id is
/// written at the cursor, which advances past it only on a match.  The
/// cursor never passes the row being read, so \p out may be domain.rows
/// itself.
template <typename Match>
size_t FilterRows(const RowDomain& domain, uint32_t* out,
                  const Match& match) {
  uint32_t* cursor = out;
  if (domain.rows == nullptr) {
    for (size_t i = 0; i < domain.n; ++i) {
      const auto r = static_cast<uint32_t>(domain.first + i);
      *cursor = r;
      cursor += match(r) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < domain.n; ++i) {
      const uint32_t r = domain.rows[i];
      *cursor = r;
      cursor += match(r) ? 1 : 0;
    }
  }
  return static_cast<size_t>(cursor - out);
}

/// Writes the rows of \p domain that are not among \p matched (a
/// subsequence of the domain, \p m ids) to \p out and returns the count;
/// one cursor walks the matches in step.  \p out may be domain.rows.
size_t Subtract(const RowDomain& domain, const uint32_t* matched, size_t m,
                uint32_t* out) {
  size_t next = 0;
  return FilterRows(domain, out, [matched, m, &next](uint32_t r) {
    const bool hit = next < m && matched[next] == r;
    next += hit ? 1 : 0;
    return !hit;
  });
}

}  // namespace

class BoundPredicate {
 public:
  BoundPredicate() = default;
  BoundPredicate(const BoundPredicate&) = delete;
  BoundPredicate& operator=(const BoundPredicate&) = delete;
  virtual ~BoundPredicate() = default;

  /// Writes the rows of \p domain that match to \p out (room for domain.n
  /// ids; it may be domain.rows itself), in domain order, and returns the
  /// count.  \p scratch lends Or and Not their second lists.
  virtual size_t Select(const RowDomain& domain, uint32_t* out,
                        SelectScratch* scratch) const = 0;
};

namespace {

using BoundPtr = std::unique_ptr<const BoundPredicate>;

/// A leaf: one row-local test.
template <typename Match>
class BoundLeaf final : public BoundPredicate {
 public:
  explicit BoundLeaf(Match match) : match_(std::move(match)) {}

  size_t Select(const RowDomain& domain, uint32_t* out,
                SelectScratch*) const override {
    return FilterRows(domain, out, match_);
  }

 private:
  Match match_;
};

template <typename Match>
BoundPtr Leaf(Match match) {
  return std::make_unique<BoundLeaf<Match>>(std::move(match));
}

/// Calls fn(data) on the typed array of a null-free int64 or double
/// column and returns its result; returns nullptr (fn not called) for any
/// other column, which then takes the null-aware NumericColumnView loop.
template <typename Fn>
BoundPtr WithNullFreeNumeric(const Column* col, Fn&& fn) {
  if (col->null_count() != 0) return nullptr;
  if (const auto* i64 = dynamic_cast<const Int64Column*>(col)) {
    return fn(i64->data().data());
  }
  if (const auto* f64 = dynamic_cast<const DoubleColumn*>(col)) {
    return fn(f64->data().data());
  }
  return nullptr;
}

/// A leaf testing pred(double(data[r])), branch-free.
template <typename T, typename Pred>
BoundPtr TypedLeaf(const T* data, Pred pred) {
  return Leaf([data, pred](uint32_t r) {
    return pred(static_cast<double>(data[r]));
  });
}

/// The verdict of ApplyOp(op, cmp) with cmp = v < lit ? -1 : v > lit ? 1
/// : 0, written per operator so the typed loop carries no switch.  A NaN
/// value matches no operator, exactly as on the null-aware path (and as
/// in BETWEEN).
template <typename T>
BoundPtr CompareLeaf(const T* data, CompareOp op, double lit) {
  switch (op) {
    case CompareOp::kEq:
      return TypedLeaf(data, [lit](double v) { return v == lit; });
    case CompareOp::kNe:
      return TypedLeaf(data,
                       [lit](double v) { return (v < lit) | (v > lit); });
    case CompareOp::kLt:
      return TypedLeaf(data, [lit](double v) { return v < lit; });
    case CompareOp::kLe:
      return TypedLeaf(data, [lit](double v) { return v <= lit; });
    case CompareOp::kGt:
      return TypedLeaf(data, [lit](double v) { return v > lit; });
    case CompareOp::kGe:
      return TypedLeaf(data, [lit](double v) { return v >= lit; });
  }
  return nullptr;
}

/// A categorical leaf on a per-code verdict (null codes never match).
class CodeLeaf final : public BoundPredicate {
 public:
  CodeLeaf(const CategoricalColumn& cat, std::vector<uint8_t> verdict)
      : codes_(cat.codes().data()), verdict_(std::move(verdict)) {}

  size_t Select(const RowDomain& domain, uint32_t* out,
                SelectScratch*) const override {
    const int32_t* codes = codes_;
    const uint8_t* match = verdict_.data();
    return FilterRows(domain, out, [codes, match](uint32_t r) {
      const int32_t c = codes[r];
      return c != CategoricalColumn::kNullCode && match[c] != 0;
    });
  }

 private:
  const int32_t* codes_;
  std::vector<uint8_t> verdict_;
};

class ComparePredicate final : public Predicate {
 public:
  ComparePredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  vs::Result<BoundPtr> Bind(const Table& table) const override {
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table.ColumnByName(column_));
    if (literal_.is_null()) {
      return vs::Status::InvalidArgument(
          "comparison against null literal never matches; use an explicit "
          "null filter instead");
    }

    if (const auto* cat = dynamic_cast<const CategoricalColumn*>(col.get())) {
      if (!literal_.is_string()) {
        return vs::Status::InvalidArgument(
            "categorical column '" + column_ + "' compared to non-string");
      }
      // Per-code verdicts against the label: equality by dictionary code,
      // ordering ops by lexicographic label comparison.
      std::vector<uint8_t> verdict(cat->cardinality());
      for (int32_t c = 0; c < cat->cardinality(); ++c) {
        int cmp = cat->label(c).compare(literal_.str());
        cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
        verdict[c] = ApplyOp(op_, cmp);
      }
      return BoundPtr(std::make_unique<CodeLeaf>(*cat, std::move(verdict)));
    }

    double lit = 0.0;
    if (!literal_.AsDouble(&lit)) {
      return vs::Status::InvalidArgument(
          "numeric column '" + column_ + "' compared to non-numeric literal");
    }
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    const CompareOp op = op_;
    if (BoundPtr typed = WithNullFreeNumeric(col.get(), [op, lit](
                             const auto* data) {
          return CompareLeaf(data, op, lit);
        })) {
      return typed;
    }
    return Leaf([view, op, lit](uint32_t r) {
      if (view.IsNull(r)) return false;
      const double v = view.at(r);
      if (std::isnan(v)) return false;  // NaN matches no comparison
      return ApplyOp(op, v < lit ? -1 : (v > lit ? 1 : 0));
    });
  }

  std::string ToString() const override {
    return column_ + " " + CompareOpName(op_) + " " + literal_.ToString();
  }

 private:
  std::string column_;
  CompareOp op_;
  Value literal_;
};

class InSetPredicate final : public Predicate {
 public:
  InSetPredicate(std::string column, std::vector<Value> values)
      : column_(std::move(column)), values_(std::move(values)) {}

  vs::Result<BoundPtr> Bind(const Table& table) const override {
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table.ColumnByName(column_));

    if (const auto* cat = dynamic_cast<const CategoricalColumn*>(col.get())) {
      std::vector<uint8_t> verdict(cat->cardinality());
      for (const Value& v : values_) {
        if (!v.is_string()) {
          return vs::Status::InvalidArgument(
              "IN-set for categorical column '" + column_ +
              "' contains non-string value");
        }
        auto code = cat->CodeFor(v.str());
        if (code.ok()) verdict[*code] = 1;
      }
      return BoundPtr(std::make_unique<CodeLeaf>(*cat, std::move(verdict)));
    }

    std::vector<double> numeric;
    numeric.reserve(values_.size());
    for (const Value& v : values_) {
      double d = 0.0;
      if (!v.AsDouble(&d)) {
        return vs::Status::InvalidArgument(
            "IN-set for numeric column '" + column_ +
            "' contains non-numeric value");
      }
      numeric.push_back(d);
    }
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    return Leaf([view, numeric = std::move(numeric)](uint32_t r) {
      if (view.IsNull(r)) return false;
      const double v = view.at(r);
      for (double d : numeric) {
        if (v == d) return true;
      }
      return false;
    });
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(values_.size());
    for (const Value& v : values_) parts.push_back(v.ToString());
    return column_ + " IN (" + vs::Join(parts, ", ") + ")";
  }

 private:
  std::string column_;
  std::vector<Value> values_;
};

class BetweenPredicate final : public Predicate {
 public:
  BetweenPredicate(std::string column, double lo, double hi)
      : column_(std::move(column)), lo_(lo), hi_(hi) {}

  vs::Result<BoundPtr> Bind(const Table& table) const override {
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table.ColumnByName(column_));
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    const double lo = lo_;
    const double hi = hi_;
    if (BoundPtr typed =
            WithNullFreeNumeric(col.get(), [lo, hi](const auto* data) {
              return TypedLeaf(data, [lo, hi](double v) {
                return (v >= lo) & (v < hi);
              });
            })) {
      return typed;
    }
    return Leaf([view, lo, hi](uint32_t r) {
      if (view.IsNull(r)) return false;
      const double v = view.at(r);
      return v >= lo && v < hi;
    });
  }

  std::string ToString() const override {
    return vs::StrFormat("%s in [%g, %g)", column_.c_str(), lo_, hi_);
  }

 private:
  std::string column_;
  double lo_;
  double hi_;
};

/// Binds \p children in order; the first failure is the status.
vs::Result<std::vector<BoundPtr>> BindAll(
    const std::vector<PredicatePtr>& children, const Table& table) {
  std::vector<BoundPtr> bound;
  bound.reserve(children.size());
  for (const PredicatePtr& child : children) {
    VS_ASSIGN_OR_RETURN(BoundPtr b, child->Bind(table));
    bound.push_back(std::move(b));
  }
  return bound;
}

class BoundAnd final : public BoundPredicate {
 public:
  explicit BoundAnd(std::vector<BoundPtr> children)
      : children_(std::move(children)) {}

  size_t Select(const RowDomain& domain, uint32_t* out,
                SelectScratch* scratch) const override {
    if (children_.empty()) {
      return FilterRows(domain, out, [](uint32_t) { return true; });
    }
    // The first child narrows the domain into out; each later child tests
    // only the rows that survived the ones before it, in place.
    size_t count = children_[0]->Select(domain, out, scratch);
    for (size_t c = 1; c < children_.size(); ++c) {
      count = children_[c]->Select(RowDomain{out, count, 0}, out, scratch);
    }
    return count;
  }

 private:
  std::vector<BoundPtr> children_;
};

class BoundOr final : public BoundPredicate {
 public:
  explicit BoundOr(std::vector<BoundPtr> children)
      : children_(std::move(children)) {}

  size_t Select(const RowDomain& domain, uint32_t* out,
                SelectScratch* scratch) const override {
    if (children_.empty()) return 0;
    // `rest` holds the rows no child has matched yet, so each later child
    // tests only those; the result is the domain minus what is left.
    uint32_t* rest = scratch->Take();
    uint32_t* matched = scratch->Take();
    size_t m = children_[0]->Select(domain, matched, scratch);
    size_t left = Subtract(domain, matched, m, rest);
    for (size_t c = 1; c < children_.size(); ++c) {
      const RowDomain unmatched{rest, left, 0};
      m = children_[c]->Select(unmatched, matched, scratch);
      left = Subtract(unmatched, matched, m, rest);
    }
    const size_t count = Subtract(domain, rest, left, out);
    scratch->GiveBack(2);
    return count;
  }

 private:
  std::vector<BoundPtr> children_;
};

class BoundNot final : public BoundPredicate {
 public:
  explicit BoundNot(BoundPtr child) : child_(std::move(child)) {}

  size_t Select(const RowDomain& domain, uint32_t* out,
                SelectScratch* scratch) const override {
    uint32_t* matched = scratch->Take();
    const size_t m = child_->Select(domain, matched, scratch);
    const size_t count = Subtract(domain, matched, m, out);
    scratch->GiveBack(1);
    return count;
  }

 private:
  BoundPtr child_;
};

class AndPredicate final : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  vs::Result<BoundPtr> Bind(const Table& table) const override {
    VS_ASSIGN_OR_RETURN(std::vector<BoundPtr> bound,
                        BindAll(children_, table));
    return BoundPtr(std::make_unique<BoundAnd>(std::move(bound)));
  }

  std::string ToString() const override {
    if (children_.empty()) return "TRUE";
    std::vector<std::string> parts;
    parts.reserve(children_.size());
    for (const auto& c : children_) parts.push_back(c->ToString());
    return vs::StrFormat("(%s)", vs::Join(parts, " AND ").c_str());
  }

 private:
  std::vector<PredicatePtr> children_;
};

class OrPredicate final : public Predicate {
 public:
  explicit OrPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  vs::Result<BoundPtr> Bind(const Table& table) const override {
    VS_ASSIGN_OR_RETURN(std::vector<BoundPtr> bound,
                        BindAll(children_, table));
    return BoundPtr(std::make_unique<BoundOr>(std::move(bound)));
  }

  std::string ToString() const override {
    if (children_.empty()) return "FALSE";
    std::vector<std::string> parts;
    parts.reserve(children_.size());
    for (const auto& c : children_) parts.push_back(c->ToString());
    return vs::StrFormat("(%s)", vs::Join(parts, " OR ").c_str());
  }

 private:
  std::vector<PredicatePtr> children_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr child) : child_(std::move(child)) {}

  vs::Result<BoundPtr> Bind(const Table& table) const override {
    VS_ASSIGN_OR_RETURN(BoundPtr bound, child_->Bind(table));
    return BoundPtr(std::make_unique<BoundNot>(std::move(bound)));
  }

  std::string ToString() const override {
    return "NOT " + child_->ToString();
  }

 private:
  PredicatePtr child_;
};

}  // namespace

PredicatePtr Compare(std::string column, CompareOp op, Value literal) {
  return std::make_shared<ComparePredicate>(std::move(column), op,
                                            std::move(literal));
}

PredicatePtr InSet(std::string column, std::vector<Value> values) {
  return std::make_shared<InSetPredicate>(std::move(column),
                                          std::move(values));
}

PredicatePtr Between(std::string column, double lo, double hi) {
  return std::make_shared<BetweenPredicate>(std::move(column), lo, hi);
}

PredicatePtr And(std::vector<PredicatePtr> children) {
  return std::make_shared<AndPredicate>(std::move(children));
}

PredicatePtr Or(std::vector<PredicatePtr> children) {
  return std::make_shared<OrPredicate>(std::move(children));
}

PredicatePtr Not(PredicatePtr child) {
  return std::make_shared<NotPredicate>(std::move(child));
}

PredicatePtr True() { return And({}); }

vs::Result<SelectionVector> SelectRows(const Table& table,
                                       const Predicate* predicate,
                                       ThreadPool* pool) {
  if (predicate == nullptr) return table.AllRows();
  VS_ASSIGN_OR_RETURN(BoundPtr bound, predicate->Bind(table));
  const size_t rows = table.num_rows();
  const size_t blocks = (rows + kSelectBlockRows - 1) / kSelectBlockRows;
  // Each block writes its matches at its own offset of one buffer and
  // records their count; the result is then copied out in block order.
  std::unique_ptr<uint32_t[]> matches(new uint32_t[rows]);
  std::vector<size_t> counts(blocks);
  // Each participant claims blocks from one counter until none is left,
  // reusing one scratch for all of them.
  std::atomic<size_t> next_block{0};
  auto claim_blocks = [&](size_t) {
    SelectScratch scratch;
    for (size_t b = next_block++; b < blocks; b = next_block++) {
      const size_t first = b * kSelectBlockRows;
      const RowDomain block{nullptr, std::min(kSelectBlockRows, rows - first),
                            static_cast<uint32_t>(first)};
      counts[b] = bound->Select(block, matches.get() + first, &scratch);
    }
  };
  const size_t participants =
      pool == nullptr ? 1 : std::min(blocks, pool->num_threads() + 1);
  if (participants > 1) {
    pool->ParallelFor(0, participants, claim_blocks);
  } else {
    claim_blocks(0);
  }
  size_t total = 0;
  for (size_t count : counts) total += count;
  SelectionVector sel;
  sel.reserve(total);
  for (size_t b = 0; b < blocks; ++b) {
    const uint32_t* begin = matches.get() + b * kSelectBlockRows;
    sel.insert(sel.end(), begin, begin + counts[b]);
  }
  return sel;
}

}  // namespace vs::data
