#include "data/predicate.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

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

/// Calls fn(data, n) on the typed array of a null-free int64 or double
/// column and returns true; returns false (fn not called) for any other
/// column, which then takes the null-aware NumericColumnView loop.
template <typename Fn>
bool WithNullFreeNumeric(const Column* col, Fn&& fn) {
  if (col->null_count() != 0) return false;
  if (const auto* i64 = dynamic_cast<const Int64Column*>(col)) {
    fn(i64->data().data(), i64->size());
    return true;
  }
  if (const auto* f64 = dynamic_cast<const DoubleColumn*>(col)) {
    fn(f64->data().data(), f64->size());
    return true;
  }
  return false;
}

/// out[r] = pred(double(data[r])) for every row, branch-free.
template <typename T, typename Pred>
void FillMask(const T* data, size_t n, uint8_t* out, Pred pred) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = static_cast<uint8_t>(pred(static_cast<double>(data[r])));
  }
}

/// The verdict of ApplyOp(op, cmp) with cmp = v < lit ? -1 : v > lit ? 1
/// : 0, written per operator so the typed loop carries no switch.  A NaN
/// value matches no operator, exactly as on the null-aware path (and as
/// in BETWEEN).
template <typename T>
void FillCompareMask(const T* data, size_t n, CompareOp op, double lit,
                     uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      return FillMask(data, n, out,
                      [lit](double v) { return v == lit; });
    case CompareOp::kNe:
      return FillMask(data, n, out,
                      [lit](double v) { return (v < lit) | (v > lit); });
    case CompareOp::kLt:
      return FillMask(data, n, out, [lit](double v) { return v < lit; });
    case CompareOp::kLe:
      return FillMask(data, n, out, [lit](double v) { return v <= lit; });
    case CompareOp::kGt:
      return FillMask(data, n, out, [lit](double v) { return v > lit; });
    case CompareOp::kGe:
      return FillMask(data, n, out, [lit](double v) { return v >= lit; });
  }
}

class ComparePredicate final : public Predicate {
 public:
  ComparePredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  vs::Status Evaluate(const Table& table,
                      std::vector<uint8_t>* mask) const override {
    mask->assign(table.num_rows(), 0);
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table.ColumnByName(column_));
    if (literal_.is_null()) {
      return vs::Status::InvalidArgument(
          "comparison against null literal never matches; use an explicit "
          "null filter instead");
    }

    // Categorical fast path.
    if (const auto* cat = dynamic_cast<const CategoricalColumn*>(col.get())) {
      if (!literal_.is_string()) {
        return vs::Status::InvalidArgument(
            "categorical column '" + column_ + "' compared to non-string");
      }
      if (op_ == CompareOp::kEq || op_ == CompareOp::kNe) {
        auto code_result = cat->CodeFor(literal_.str());
        const int32_t code =
            code_result.ok() ? *code_result : CategoricalColumn::kNullCode - 1;
        for (size_t r = 0; r < cat->size(); ++r) {
          int32_t c = cat->code(r);
          if (c == CategoricalColumn::kNullCode) continue;
          const bool eq = (c == code);
          (*mask)[r] = (op_ == CompareOp::kEq) ? eq : !eq;
        }
        return vs::Status::OK();
      }
      // Ordering ops: precompute per-code verdicts against the label.
      std::vector<uint8_t> verdict(cat->cardinality());
      for (int32_t c = 0; c < cat->cardinality(); ++c) {
        int cmp = cat->label(c).compare(literal_.str());
        cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
        verdict[c] = ApplyOp(op_, cmp);
      }
      for (size_t r = 0; r < cat->size(); ++r) {
        int32_t c = cat->code(r);
        if (c != CategoricalColumn::kNullCode) (*mask)[r] = verdict[c];
      }
      return vs::Status::OK();
    }

    // Numeric path.
    double lit = 0.0;
    if (!literal_.AsDouble(&lit)) {
      return vs::Status::InvalidArgument(
          "numeric column '" + column_ + "' compared to non-numeric literal");
    }
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    if (WithNullFreeNumeric(col.get(), [&](const auto* data, size_t n) {
          FillCompareMask(data, n, op_, lit, mask->data());
        })) {
      return vs::Status::OK();
    }
    for (size_t r = 0; r < view.size(); ++r) {
      if (view.IsNull(r)) continue;
      const double v = view.at(r);
      if (std::isnan(v)) continue;  // NaN matches no comparison
      const int cmp = v < lit ? -1 : (v > lit ? 1 : 0);
      (*mask)[r] = ApplyOp(op_, cmp);
    }
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

  vs::Status Evaluate(const Table& table,
                      std::vector<uint8_t>* mask) const override {
    mask->assign(table.num_rows(), 0);
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table.ColumnByName(column_));

    if (const auto* cat = dynamic_cast<const CategoricalColumn*>(col.get())) {
      std::unordered_set<int32_t> codes;
      for (const Value& v : values_) {
        if (!v.is_string()) {
          return vs::Status::InvalidArgument(
              "IN-set for categorical column '" + column_ +
              "' contains non-string value");
        }
        auto code = cat->CodeFor(v.str());
        if (code.ok()) codes.insert(*code);
      }
      for (size_t r = 0; r < cat->size(); ++r) {
        int32_t c = cat->code(r);
        if (c != CategoricalColumn::kNullCode && codes.count(c) != 0) {
          (*mask)[r] = 1;
        }
      }
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
    for (size_t r = 0; r < view.size(); ++r) {
      if (view.IsNull(r)) continue;
      const double v = view.at(r);
      for (double d : numeric) {
        if (v == d) {
          (*mask)[r] = 1;
          break;
        }
      }
    }
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

  vs::Status Evaluate(const Table& table,
                      std::vector<uint8_t>* mask) const override {
    mask->assign(table.num_rows(), 0);
    VS_ASSIGN_OR_RETURN(ColumnPtr col, table.ColumnByName(column_));
    VS_ASSIGN_OR_RETURN(NumericColumnView view,
                        NumericColumnView::Wrap(col.get()));
    const double lo = lo_;
    const double hi = hi_;
    if (WithNullFreeNumeric(col.get(), [&](const auto* data, size_t n) {
          FillMask(data, n, mask->data(),
                   [lo, hi](double v) { return (v >= lo) & (v < hi); });
        })) {
      return vs::Status::OK();
    }
    for (size_t r = 0; r < view.size(); ++r) {
      if (view.IsNull(r)) continue;
      const double v = view.at(r);
      (*mask)[r] = (v >= lo && v < hi);
    }
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

  vs::Status Evaluate(const Table& table,
                      std::vector<uint8_t>* mask) const override {
    if (children_.empty()) {
      mask->assign(table.num_rows(), 1);
      return vs::Status::OK();
    }
    // The first child writes the mask directly; the rest are folded in.
    VS_RETURN_IF_ERROR(children_[0]->Evaluate(table, mask));
    std::vector<uint8_t> child_mask;
    for (size_t c = 1; c < children_.size(); ++c) {
      VS_RETURN_IF_ERROR(children_[c]->Evaluate(table, &child_mask));
      for (size_t r = 0; r < mask->size(); ++r) (*mask)[r] &= child_mask[r];
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

  vs::Status Evaluate(const Table& table,
                      std::vector<uint8_t>* mask) const override {
    mask->assign(table.num_rows(), 0);
    std::vector<uint8_t> child_mask;
    for (const PredicatePtr& child : children_) {
      VS_RETURN_IF_ERROR(child->Evaluate(table, &child_mask));
      for (size_t r = 0; r < mask->size(); ++r) (*mask)[r] |= child_mask[r];
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

  vs::Status Evaluate(const Table& table,
                      std::vector<uint8_t>* mask) const override {
    VS_RETURN_IF_ERROR(child_->Evaluate(table, mask));
    for (auto& m : *mask) m = !m;
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
  std::vector<uint8_t> mask;
  VS_RETURN_IF_ERROR(predicate->Evaluate(table, &mask));
  size_t matches = 0;
  for (uint8_t m : mask) matches += m != 0;
  // Sized once and filled branch-free: every row id is written, and the
  // cursor advances past it only on a match (one spare slot takes the
  // writes after the last match).
  SelectionVector sel(matches + 1);
  size_t k = 0;
  for (size_t r = 0; r < mask.size(); ++r) {
    sel[k] = static_cast<uint32_t>(r);
    k += mask[r] != 0;
  }
  sel.resize(matches);
  return sel;
}

}  // namespace vs::data
