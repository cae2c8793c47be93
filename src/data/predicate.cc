#include "data/predicate.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "common/string_util.h"

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

/// Replaces \p out with every row of the domain for which match(row)
/// holds, in domain order.  The domain is rows[0, n) when \p rows is set,
/// else the row ids [0, n).  Branch-free: each row id is written at the
/// cursor, which advances past it only on a match.  The scratch is left
/// uninitialized, so only the slots up to the last match are touched, and
/// the output is allocated once at its exact size.
template <typename Match>
void FilterRows(const uint32_t* rows, size_t n, SelectionVector* out,
                Match match) {
  std::unique_ptr<uint32_t[]> scratch(new uint32_t[n + 1]);
  uint32_t* cursor = scratch.get();
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const auto r = static_cast<uint32_t>(i);
      *cursor = r;
      cursor += match(r) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = rows[i];
      *cursor = r;
      cursor += match(r) ? 1 : 0;
    }
  }
  out->assign(scratch.get(), cursor);
}

/// FilterRows over \p candidates, or over every row of \p table when
/// \p candidates is null.
template <typename Match>
void FilterCandidates(const Table& table, const SelectionVector* candidates,
                      SelectionVector* out, Match match) {
  if (candidates == nullptr) {
    FilterRows(nullptr, table.num_rows(), out, match);
  } else {
    FilterRows(candidates->data(), candidates->size(), out, match);
  }
}

/// Calls fn(data) on the typed array of a null-free int64 or double
/// column and returns true; returns false (fn not called) for any other
/// column, which then takes the null-aware NumericColumnView loop.
template <typename Fn>
bool WithNullFreeNumeric(const Column* col, Fn&& fn) {
  if (col->null_count() != 0) return false;
  if (const auto* i64 = dynamic_cast<const Int64Column*>(col)) {
    fn(i64->data().data());
    return true;
  }
  if (const auto* f64 = dynamic_cast<const DoubleColumn*>(col)) {
    fn(f64->data().data());
    return true;
  }
  return false;
}

/// Filters the candidates on pred(double(data[r])), branch-free.
template <typename T, typename Pred>
void FilterTyped(const Table& table, const SelectionVector* candidates,
                 const T* data, SelectionVector* out, Pred pred) {
  FilterCandidates(table, candidates, out, [data, pred](uint32_t r) {
    return pred(static_cast<double>(data[r]));
  });
}

/// The verdict of ApplyOp(op, cmp) with cmp = v < lit ? -1 : v > lit ? 1
/// : 0, written per operator so the typed loop carries no switch.  A NaN
/// value matches no operator, exactly as on the null-aware path (and as
/// in BETWEEN).
template <typename T>
void FilterCompare(const Table& table, const SelectionVector* candidates,
                   const T* data, CompareOp op, double lit,
                   SelectionVector* out) {
  switch (op) {
    case CompareOp::kEq:
      return FilterTyped(table, candidates, data, out,
                         [lit](double v) { return v == lit; });
    case CompareOp::kNe:
      return FilterTyped(table, candidates, data, out,
                         [lit](double v) { return (v < lit) | (v > lit); });
    case CompareOp::kLt:
      return FilterTyped(table, candidates, data, out,
                         [lit](double v) { return v < lit; });
    case CompareOp::kLe:
      return FilterTyped(table, candidates, data, out,
                         [lit](double v) { return v <= lit; });
    case CompareOp::kGt:
      return FilterTyped(table, candidates, data, out,
                         [lit](double v) { return v > lit; });
    case CompareOp::kGe:
      return FilterTyped(table, candidates, data, out,
                         [lit](double v) { return v >= lit; });
  }
}

/// Filters the candidates of categorical \p cat on a per-code verdict
/// (null codes never match).
void FilterCodes(const Table& table, const SelectionVector* candidates,
                 const CategoricalColumn& cat,
                 const std::vector<uint8_t>& verdict, SelectionVector* out) {
  const int32_t* codes = cat.codes().data();
  const uint8_t* match = verdict.data();
  FilterCandidates(table, candidates, out, [codes, match](uint32_t r) {
    const int32_t c = codes[r];
    return c != CategoricalColumn::kNullCode && match[c] != 0;
  });
}

class ComparePredicate final : public Predicate {
 public:
  ComparePredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  vs::Status Select(const Table& table, const SelectionVector* candidates,
                    SelectionVector* out) const override {
    out->clear();
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
      FilterCodes(table, candidates, *cat, verdict, out);
      return vs::Status::OK();
    }

    double lit = 0.0;
    if (!literal_.AsDouble(&lit)) {
      return vs::Status::InvalidArgument(
          "numeric column '" + column_ + "' compared to non-numeric literal");
    }
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    if (WithNullFreeNumeric(col.get(), [&](const auto* data) {
          FilterCompare(table, candidates, data, op_, lit, out);
        })) {
      return vs::Status::OK();
    }
    const CompareOp op = op_;
    FilterCandidates(table, candidates, out, [&view, op, lit](uint32_t r) {
      if (view.IsNull(r)) return false;
      const double v = view.at(r);
      if (std::isnan(v)) return false;  // NaN matches no comparison
      return ApplyOp(op, v < lit ? -1 : (v > lit ? 1 : 0));
    });
    return vs::Status::OK();
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

  vs::Status Select(const Table& table, const SelectionVector* candidates,
                    SelectionVector* out) const override {
    out->clear();
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
      FilterCodes(table, candidates, *cat, verdict, out);
      return vs::Status::OK();
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
    FilterCandidates(table, candidates, out, [&view, &numeric](uint32_t r) {
      if (view.IsNull(r)) return false;
      const double v = view.at(r);
      for (double d : numeric) {
        if (v == d) return true;
      }
      return false;
    });
    return vs::Status::OK();
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

  vs::Status Select(const Table& table, const SelectionVector* candidates,
                    SelectionVector* out) const override {
    out->clear();
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table.ColumnByName(column_));
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    const double lo = lo_;
    const double hi = hi_;
    if (WithNullFreeNumeric(col.get(), [&](const auto* data) {
          FilterTyped(table, candidates, data, out,
                      [lo, hi](double v) { return (v >= lo) & (v < hi); });
        })) {
      return vs::Status::OK();
    }
    FilterCandidates(table, candidates, out, [&view, lo, hi](uint32_t r) {
      if (view.IsNull(r)) return false;
      const double v = view.at(r);
      return v >= lo && v < hi;
    });
    return vs::Status::OK();
  }

  std::string ToString() const override {
    return vs::StrFormat("%s in [%g, %g)", column_.c_str(), lo_, hi_);
  }

 private:
  std::string column_;
  double lo_;
  double hi_;
};

class AndPredicate final : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  vs::Status Select(const Table& table, const SelectionVector* candidates,
                    SelectionVector* out) const override {
    if (children_.empty()) {
      *out = candidates != nullptr ? *candidates : table.AllRows();
      return vs::Status::OK();
    }
    // The first child narrows the candidates; each later child tests only
    // the rows that survived the ones before it.
    VS_RETURN_IF_ERROR(children_[0]->Select(table, candidates, out));
    SelectionVector narrowed;
    for (size_t c = 1; c < children_.size(); ++c) {
      VS_RETURN_IF_ERROR(children_[c]->Select(table, out, &narrowed));
      out->swap(narrowed);
    }
    return vs::Status::OK();
  }

  std::string ToString() const override {
    if (children_.empty()) return "TRUE";
    std::vector<std::string> parts;
    parts.reserve(children_.size());
    for (const auto& c : children_) parts.push_back(c->ToString());
    return "(" + vs::Join(parts, " AND ") + ")";
  }

 private:
  std::vector<PredicatePtr> children_;
};

class OrPredicate final : public Predicate {
 public:
  explicit OrPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  vs::Status Select(const Table& table, const SelectionVector* candidates,
                    SelectionVector* out) const override {
    out->clear();
    SelectionVector matched;
    SelectionVector merged;
    for (const PredicatePtr& child : children_) {
      VS_RETURN_IF_ERROR(child->Select(table, candidates, &matched));
      merged.clear();
      std::set_union(out->begin(), out->end(), matched.begin(), matched.end(),
                     std::back_inserter(merged));
      out->swap(merged);
    }
    return vs::Status::OK();
  }

  std::string ToString() const override {
    if (children_.empty()) return "FALSE";
    std::vector<std::string> parts;
    parts.reserve(children_.size());
    for (const auto& c : children_) parts.push_back(c->ToString());
    return "(" + vs::Join(parts, " OR ") + ")";
  }

 private:
  std::vector<PredicatePtr> children_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr child) : child_(std::move(child)) {}

  vs::Status Select(const Table& table, const SelectionVector* candidates,
                    SelectionVector* out) const override {
    SelectionVector matched;
    VS_RETURN_IF_ERROR(child_->Select(table, candidates, &matched));
    // The child's matches are a subsequence of the candidates, so one
    // cursor walks them in step.
    size_t next = 0;
    FilterCandidates(table, candidates, out, [&matched, &next](uint32_t r) {
      const bool hit = next < matched.size() && matched[next] == r;
      next += hit ? 1 : 0;
      return !hit;
    });
    return vs::Status::OK();
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
                                       const Predicate* predicate) {
  if (predicate == nullptr) return table.AllRows();
  SelectionVector sel;
  VS_RETURN_IF_ERROR(predicate->Select(table, nullptr, &sel));
  return sel;
}

}  // namespace vs::data
