#ifndef VS_DATA_TABLE_H_
#define VS_DATA_TABLE_H_

/// \file table.h
/// \brief Immutable column bundle (Table) plus the row-oriented
/// TableBuilder used by ingestion paths.
///
/// Query operators never copy table data; subsets are expressed as
/// *selection vectors* (sorted row-id arrays, see predicate.h / sampler.h)
/// over a shared Table.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/column.h"
#include "data/schema.h"
#include "data/value.h"

namespace vs::data {

/// Sorted array of selected row ids; the engine's subset representation.
using SelectionVector = std::vector<uint32_t>;

class TableMemo;

/// \brief An immutable, schema-tagged set of equal-length columns.
class Table {
 public:
  Table() = default;

  /// Builds a table; fails when column count/length/type disagree with the
  /// schema.
  static vs::Result<Table> Make(Schema schema,
                                std::vector<ColumnPtr> columns);

  /// Number of rows (0 for the empty table).
  size_t num_rows() const { return num_rows_; }

  /// Number of columns.
  size_t num_columns() const { return columns_.size(); }

  /// The schema.
  const Schema& schema() const { return schema_; }

  /// Column at schema position \p index.
  const ColumnPtr& column(size_t index) const { return columns_[index]; }

  /// Column by field name, or NotFound.
  vs::Result<ColumnPtr> ColumnByName(const std::string& name) const;

  /// \name Typed column access (NotFound / InvalidArgument on mismatch).
  /// @{
  vs::Result<const Int64Column*> Int64ColumnByName(
      const std::string& name) const;
  vs::Result<const DoubleColumn*> DoubleColumnByName(
      const std::string& name) const;
  vs::Result<const CategoricalColumn*> CategoricalColumnByName(
      const std::string& name) const;
  /// @}

  /// Boxed cell accessor (slow path, for tests/CSV).
  Value GetValue(size_t row, size_t col) const {
    return columns_[col]->GetValue(row);
  }

  /// Materializes a new table containing only the rows in \p selection
  /// (which must be sorted and in range).  Used by tests and by callers
  /// that want a standalone subset; query operators prefer passing the
  /// selection vector through instead.
  vs::Result<Table> Take(const SelectionVector& selection) const;

  /// Selection vector covering every row.
  SelectionVector AllRows() const;

  /// Memo of full-table aggregation state (data/table_memo.h), filled
  /// lazily by GroupByExecutor.  Copies of this table share it; Make and
  /// Take start an empty one.  Null only for a default-constructed or
  /// moved-from table, which callers then serve uncached.
  TableMemo* memo() const { return memo_.get(); }

 private:
  Schema schema_;
  std::vector<ColumnPtr> columns_;
  size_t num_rows_ = 0;
  std::shared_ptr<TableMemo> memo_;
};

/// \brief Row-at-a-time table construction with type checking.
///
/// int64 values are accepted into double fields (widening); everything else
/// must match the schema exactly, except nulls which are accepted anywhere.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema);

  /// Pre-allocates row capacity.
  void Reserve(size_t rows);

  /// Appends one row; \p cells must have one Value per schema field.
  vs::Status AppendRow(const std::vector<Value>& cells);

  /// Number of rows appended so far.
  size_t num_rows() const { return num_rows_; }

  /// Finalizes into an immutable Table; the builder is left empty.
  vs::Result<Table> Build();

 private:
  Schema schema_;
  std::vector<std::shared_ptr<Column>> columns_;
  size_t num_rows_ = 0;
};

/// \brief Non-owning view of a numeric (int64 or double) column exposing a
/// uniform double accessor; the group-by engine's measure input.
class NumericColumnView {
 public:
  /// Wraps \p column, which must be int64 or double typed.
  static vs::Result<NumericColumnView> Wrap(const Column* column);

  /// Cell as double (undefined for null cells; check IsNull first).
  double at(size_t row) const {
    return ints_ != nullptr ? static_cast<double>(ints_->at(row))
                            : dbls_->at(row);
  }

  /// True iff the cell is null.
  bool IsNull(size_t row) const {
    return ints_ != nullptr ? ints_->IsNull(row) : dbls_->IsNull(row);
  }

  /// Number of rows.
  size_t size() const {
    return ints_ != nullptr ? ints_->size() : dbls_->size();
  }

 private:
  const Int64Column* ints_ = nullptr;
  const DoubleColumn* dbls_ = nullptr;
};

}  // namespace vs::data

#endif  // VS_DATA_TABLE_H_
