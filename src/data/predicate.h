#ifndef VS_DATA_PREDICATE_H_
#define VS_DATA_PREDICATE_H_

/// \file predicate.h
/// \brief Selection-based predicate trees — the WHERE clause of the engine.
///
/// SelectRows first binds a Predicate to the table: every column and
/// literal is resolved and checked once, so error statuses never depend on
/// the data.  The bound tree then runs over fixed blocks of
/// kSelectBlockRows rows, on a borrowed pool's workers or inline, and the
/// blocks' matches are concatenated in block order; every predicate is
/// row-local, so the selection is identical for any pool.  Within a block
/// a node narrows a sorted candidate list of row ids (the block's whole
/// range at the root).  Leaves filter the candidates with typed,
/// null-aware loops.  And() narrows one list in place child by child, so
/// each later child tests only the rows that survived; Or() hands each
/// later child only the rows no earlier child matched; Not() is the
/// candidates minus its child's matches.
///
/// Semantics are two-valued: null cells compare false under every
/// comparison, a NaN cell matches no numeric comparison, and Not() is a
/// pure complement (this deviates from SQL's three-valued logic; the
/// deviation is intentional and covered by tests).

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "data/value.h"

namespace vs {
class ThreadPool;
}  // namespace vs

namespace vs::data {

/// Rows per SelectRows block, the unit a pool worker claims.
inline constexpr size_t kSelectBlockRows = size_t{1} << 16;

/// A Predicate resolved against one table: the form SelectRows evaluates
/// (defined in predicate.cc).
class BoundPredicate;

/// Comparison operator of a leaf predicate.
enum class CompareOp : int { kEq, kNe, kLt, kLe, kGt, kGe };

/// Symbolic name ("==", "!=", "<", "<=", ">", ">=").
std::string CompareOpName(CompareOp op);

/// \brief Abstract predicate node.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Resolves the predicate's columns and literals against \p table,
  /// children in order; the first error found is the status SelectRows
  /// returns.  The bound tree borrows \p table's columns.
  virtual vs::Result<std::unique_ptr<const BoundPredicate>> Bind(
      const Table& table) const = 0;

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
/// sorted row ids of matches.  With a \p pool, its workers and the
/// calling thread claim blocks; without one, the blocks run inline.  The
/// result and the status are the same either way.
vs::Result<SelectionVector> SelectRows(const Table& table,
                                       const Predicate* predicate,
                                       ThreadPool* pool = nullptr);

/// Convenience overload for shared pointers.
inline vs::Result<SelectionVector> SelectRows(const Table& table,
                                              const PredicatePtr& predicate,
                                              ThreadPool* pool = nullptr) {
  return SelectRows(table, predicate.get(), pool);
}

}  // namespace vs::data

#endif  // VS_DATA_PREDICATE_H_
