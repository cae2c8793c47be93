#ifndef VS_DATA_PREDICATE_H_
#define VS_DATA_PREDICATE_H_

/// \file predicate.h
/// \brief Selection-based predicate trees — the WHERE clause of the engine.
///
/// A Predicate narrows a sorted candidate list of row ids to the rows that
/// match; SelectRows starts from every row of the table.  Leaves filter
/// the candidates with typed, null-aware loops.  And() narrows one list
/// child by child, so its first child scans the table and each later child
/// tests only the rows that survived; Or() is the sorted union of its
/// children over the same candidates; Not() is the candidates minus its
/// child's matches.  Error statuses do not depend on the data: a child
/// handed an empty candidate list still validates its column and literal.
///
/// Semantics are two-valued: null cells compare false under every
/// comparison, a NaN cell matches no numeric comparison, and Not() is a
/// pure complement (this deviates from SQL's three-valued logic; the
/// deviation is intentional and covered by tests).

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "data/value.h"

namespace vs::data {

/// Comparison operator of a leaf predicate.
enum class CompareOp : int { kEq, kNe, kLt, kLe, kGt, kGe };

/// Symbolic name ("==", "!=", "<", "<=", ">", ">=").
std::string CompareOpName(CompareOp op);

/// \brief Abstract predicate node.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Replaces \p out with the rows of \p candidates (sorted, in-range row
  /// ids; nullptr = every row of \p table) that match, in candidate order.
  virtual vs::Status Select(const Table& table,
                            const SelectionVector* candidates,
                            SelectionVector* out) const = 0;

  /// Debug rendering, e.g. "(age >= 30 AND state == CA)".
  virtual std::string ToString() const = 0;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// \name Factory functions.
/// @{

/// column <op> literal.  Numeric literals apply to numeric columns; string
/// literals apply to categorical columns (ordering ops compare labels
/// lexicographically).
PredicatePtr Compare(std::string column, CompareOp op, Value literal);

/// column IN (values); values must be homogeneous with the column type.
PredicatePtr InSet(std::string column, std::vector<Value> values);

/// Numeric half-open range lo <= column < hi.
PredicatePtr Between(std::string column, double lo, double hi);

/// Conjunction (empty = TRUE).
PredicatePtr And(std::vector<PredicatePtr> children);

/// Disjunction (empty = FALSE).
PredicatePtr Or(std::vector<PredicatePtr> children);

/// Complement.
PredicatePtr Not(PredicatePtr child);

/// Constant TRUE.
PredicatePtr True();

/// @}

/// Evaluates \p predicate (nullptr = TRUE) over \p table and returns the
/// sorted row ids of matches.
vs::Result<SelectionVector> SelectRows(const Table& table,
                                       const Predicate* predicate);

/// Convenience overload for shared pointers.
inline vs::Result<SelectionVector> SelectRows(const Table& table,
                                              const PredicatePtr& predicate) {
  return SelectRows(table, predicate.get());
}

}  // namespace vs::data

#endif  // VS_DATA_PREDICATE_H_
