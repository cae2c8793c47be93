#include "data/table.h"

#include <cassert>

#include "common/string_util.h"
#include "data/table_memo.h"

namespace vs::data {

vs::Result<Table> Table::Make(Schema schema, std::vector<ColumnPtr> columns) {
  if (schema.num_fields() != columns.size()) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "schema has %zu fields but %zu columns were provided",
        schema.num_fields(), columns.size()));
  }
  size_t rows = columns.empty() ? 0 : columns[0]->size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == nullptr) {
      return vs::Status::InvalidArgument("null column at index " +
                                         std::to_string(i));
    }
    if (columns[i]->size() != rows) {
      return vs::Status::InvalidArgument(vs::StrFormat(
          "column '%s' has %zu rows, expected %zu",
          schema.field(i).name.c_str(), columns[i]->size(), rows));
    }
    if (columns[i]->type() != schema.field(i).type) {
      return vs::Status::InvalidArgument(vs::StrFormat(
          "column '%s' has type %s, schema says %s",
          schema.field(i).name.c_str(),
          DataTypeName(columns[i]->type()).c_str(),
          DataTypeName(schema.field(i).type).c_str()));
    }
  }
  Table t;
  t.schema_ = std::move(schema);
  t.columns_ = std::move(columns);
  t.num_rows_ = rows;
  t.memo_ = std::make_shared<TableMemo>();
  return t;
}

vs::Result<ColumnPtr> Table::ColumnByName(const std::string& name) const {
  VS_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
  return columns_[idx];
}

vs::Result<const Int64Column*> Table::Int64ColumnByName(
    const std::string& name) const {
  VS_ASSIGN_OR_RETURN(ColumnPtr col, ColumnByName(name));
  const auto* typed = dynamic_cast<const Int64Column*>(col.get());
  if (typed == nullptr) {
    return vs::Status::InvalidArgument("column '" + name + "' is not int64");
  }
  return typed;
}

vs::Result<const DoubleColumn*> Table::DoubleColumnByName(
    const std::string& name) const {
  VS_ASSIGN_OR_RETURN(ColumnPtr col, ColumnByName(name));
  const auto* typed = dynamic_cast<const DoubleColumn*>(col.get());
  if (typed == nullptr) {
    return vs::Status::InvalidArgument("column '" + name + "' is not double");
  }
  return typed;
}

vs::Result<const CategoricalColumn*> Table::CategoricalColumnByName(
    const std::string& name) const {
  VS_ASSIGN_OR_RETURN(ColumnPtr col, ColumnByName(name));
  const auto* typed = dynamic_cast<const CategoricalColumn*>(col.get());
  if (typed == nullptr) {
    return vs::Status::InvalidArgument("column '" + name +
                                       "' is not categorical");
  }
  return typed;
}

vs::Result<Table> Table::Take(const SelectionVector& selection) const {
  for (size_t i = 1; i < selection.size(); ++i) {
    if (selection[i] <= selection[i - 1]) {
      return vs::Status::InvalidArgument(
          "selection vector must be strictly increasing");
    }
  }
  if (!selection.empty() && selection.back() >= num_rows_) {
    return vs::Status::OutOfRange("selection row id out of range");
  }
  TableBuilder builder(schema_);
  builder.Reserve(selection.size());
  std::vector<Value> row(num_columns());
  for (uint32_t r : selection) {
    for (size_t c = 0; c < num_columns(); ++c) {
      row[c] = columns_[c]->GetValue(r);
    }
    VS_RETURN_IF_ERROR(builder.AppendRow(row));
  }
  return builder.Build();
}

SelectionVector Table::AllRows() const {
  SelectionVector sel(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    switch (f.type) {
      case DataType::kInt64:
        columns_.push_back(std::make_shared<Int64Column>());
        break;
      case DataType::kDouble:
        columns_.push_back(std::make_shared<DoubleColumn>());
        break;
      case DataType::kString:
        columns_.push_back(std::make_shared<CategoricalColumn>());
        break;
      case DataType::kNull:
        columns_.push_back(nullptr);  // rejected in AppendRow
        break;
    }
  }
}

void TableBuilder::Reserve(size_t rows) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == nullptr) continue;
    switch (schema_.field(i).type) {
      case DataType::kInt64:
        static_cast<Int64Column*>(columns_[i].get())->Reserve(rows);
        break;
      case DataType::kDouble:
        static_cast<DoubleColumn*>(columns_[i].get())->Reserve(rows);
        break;
      case DataType::kString:
        static_cast<CategoricalColumn*>(columns_[i].get())->Reserve(rows);
        break;
      default:
        break;
    }
  }
}

vs::Status TableBuilder::AppendRow(const std::vector<Value>& cells) {
  if (cells.size() != schema_.num_fields()) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "row has %zu cells, schema has %zu fields", cells.size(),
        schema_.num_fields()));
  }
  // Validate the whole row before mutating any column so a failed append
  // leaves the builder consistent.
  for (size_t i = 0; i < cells.size(); ++i) {
    const Field& f = schema_.field(i);
    const Value& v = cells[i];
    if (columns_[i] == nullptr) {
      return vs::Status::InvalidArgument("field '" + f.name +
                                         "' has unsupported type null");
    }
    if (v.is_null()) continue;
    switch (f.type) {
      case DataType::kInt64:
        if (!v.is_int64()) {
          return vs::Status::InvalidArgument(
              "type mismatch for field '" + f.name + "': expected int64, got " +
              DataTypeName(v.type()));
        }
        break;
      case DataType::kDouble:
        if (!v.is_double() && !v.is_int64()) {
          return vs::Status::InvalidArgument(
              "type mismatch for field '" + f.name +
              "': expected double, got " + DataTypeName(v.type()));
        }
        break;
      case DataType::kString:
        if (!v.is_string()) {
          return vs::Status::InvalidArgument(
              "type mismatch for field '" + f.name +
              "': expected string, got " + DataTypeName(v.type()));
        }
        break;
      default:
        return vs::Status::Internal("unreachable field type");
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const Field& f = schema_.field(i);
    const Value& v = cells[i];
    switch (f.type) {
      case DataType::kInt64: {
        auto* col = static_cast<Int64Column*>(columns_[i].get());
        if (v.is_null()) {
          col->AppendNull();
        } else {
          col->Append(v.int64());
        }
        break;
      }
      case DataType::kDouble: {
        auto* col = static_cast<DoubleColumn*>(columns_[i].get());
        if (v.is_null()) {
          col->AppendNull();
        } else {
          double d = 0.0;
          v.AsDouble(&d);
          col->Append(d);
        }
        break;
      }
      case DataType::kString: {
        auto* col = static_cast<CategoricalColumn*>(columns_[i].get());
        if (v.is_null()) {
          col->AppendNull();
        } else {
          col->Append(v.str());
        }
        break;
      }
      default:
        break;
    }
  }
  ++num_rows_;
  return vs::Status::OK();
}

vs::Result<Table> TableBuilder::Build() {
  std::vector<ColumnPtr> frozen;
  frozen.reserve(columns_.size());
  for (auto& c : columns_) frozen.push_back(std::move(c));
  Schema schema = schema_;
  num_rows_ = 0;
  columns_.clear();
  return Table::Make(std::move(schema), std::move(frozen));
}

vs::Result<NumericColumnView> NumericColumnView::Wrap(const Column* column) {
  NumericColumnView view;
  if (const auto* i = dynamic_cast<const Int64Column*>(column)) {
    view.ints_ = i;
    return view;
  }
  if (const auto* d = dynamic_cast<const DoubleColumn*>(column)) {
    view.dbls_ = d;
    return view;
  }
  return vs::Status::InvalidArgument("column is not numeric");
}

}  // namespace vs::data
