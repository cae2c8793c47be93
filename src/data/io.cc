#include "data/io.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace vs::data {

namespace {

constexpr char kMagic[4] = {'V', 'S', 'T', 'B'};
constexpr uint32_t kVersion = 1;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

/// Bounds-checked sequential reader over the serialized bytes.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  vs::Status Need(size_t n) {
    if (pos_ + n > bytes_.size()) {
      return vs::Status::InvalidArgument(vs::StrFormat(
          "truncated table data at offset %zu (need %zu more bytes)", pos_,
          n));
    }
    return vs::Status::OK();
  }

  vs::Result<uint8_t> GetU8() {
    VS_RETURN_IF_ERROR(Need(1));
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  vs::Result<uint32_t> GetU32() {
    VS_RETURN_IF_ERROR(Need(4));
    uint32_t v;
    std::memcpy(&v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  vs::Result<uint64_t> GetU64() {
    VS_RETURN_IF_ERROR(Need(8));
    uint64_t v;
    std::memcpy(&v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  vs::Result<std::string> GetString(size_t n) {
    VS_RETURN_IF_ERROR(Need(n));
    std::string s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  vs::Status GetBytes(void* dst, size_t n) {
    VS_RETURN_IF_ERROR(Need(n));
    // An empty column hands over a null dst; memcpy requires non-null
    // pointers even for zero bytes.
    if (n == 0) return vs::Status::OK();
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return vs::Status::OK();
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

}  // namespace

vs::Result<std::string> SerializeTable(const Table& table) {
  std::string out;
  out.append(kMagic, 4);
  PutU32(&out, kVersion);
  PutU64(&out, table.num_rows());
  PutU32(&out, static_cast<uint32_t>(table.num_columns()));

  const size_t rows = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    PutU32(&out, static_cast<uint32_t>(field.name.size()));
    out.append(field.name);
    PutU8(&out, static_cast<uint8_t>(field.type));
    PutU8(&out, static_cast<uint8_t>(field.role));

    const Column& col = *table.column(c);
    const bool has_nulls = col.null_count() > 0;
    PutU8(&out, has_nulls ? 1 : 0);
    if (has_nulls) {
      for (size_t r = 0; r < rows; ++r) {
        PutU8(&out, col.IsNull(r) ? 1 : 0);
      }
    }

    switch (field.type) {
      case DataType::kInt64: {
        const auto& typed = static_cast<const Int64Column&>(col);
        PutBytes(&out, typed.data().data(), rows * sizeof(int64_t));
        break;
      }
      case DataType::kDouble: {
        const auto& typed = static_cast<const DoubleColumn&>(col);
        PutBytes(&out, typed.data().data(), rows * sizeof(double));
        break;
      }
      case DataType::kString: {
        const auto& typed = static_cast<const CategoricalColumn&>(col);
        PutU32(&out, static_cast<uint32_t>(typed.dictionary().size()));
        for (const std::string& label : typed.dictionary()) {
          PutU32(&out, static_cast<uint32_t>(label.size()));
          out.append(label);
        }
        PutBytes(&out, typed.codes().data(), rows * sizeof(int32_t));
        break;
      }
      default:
        return vs::Status::NotSupported("cannot serialize column type " +
                                        DataTypeName(field.type));
    }
  }
  return out;
}

vs::Result<Table> DeserializeTable(const std::string& bytes) {
  Reader reader(bytes);
  VS_ASSIGN_OR_RETURN(std::string magic, reader.GetString(4));
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    return vs::Status::InvalidArgument("bad table magic");
  }
  VS_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kVersion) {
    return vs::Status::NotSupported(
        vs::StrFormat("unsupported table format version %u", version));
  }
  VS_ASSIGN_OR_RETURN(uint64_t rows64, reader.GetU64());
  VS_ASSIGN_OR_RETURN(uint32_t num_columns, reader.GetU32());
  const size_t rows = static_cast<size_t>(rows64);

  std::vector<Field> fields;
  std::vector<ColumnPtr> columns;
  fields.reserve(num_columns);
  columns.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    VS_ASSIGN_OR_RETURN(uint32_t name_len, reader.GetU32());
    VS_ASSIGN_OR_RETURN(std::string name, reader.GetString(name_len));
    VS_ASSIGN_OR_RETURN(uint8_t type_byte, reader.GetU8());
    VS_ASSIGN_OR_RETURN(uint8_t role_byte, reader.GetU8());
    if (type_byte > static_cast<uint8_t>(DataType::kString)) {
      return vs::Status::InvalidArgument("bad column type byte");
    }
    if (role_byte > static_cast<uint8_t>(FieldRole::kOther)) {
      return vs::Status::InvalidArgument("bad column role byte");
    }
    const auto type = static_cast<DataType>(type_byte);
    const auto role = static_cast<FieldRole>(role_byte);
    fields.emplace_back(std::move(name), type, role);

    VS_ASSIGN_OR_RETURN(uint8_t has_nulls, reader.GetU8());
    std::vector<uint8_t> nulls;
    if (has_nulls != 0) {
      nulls.resize(rows);
      VS_RETURN_IF_ERROR(reader.GetBytes(nulls.data(), rows));
    }

    switch (type) {
      case DataType::kInt64: {
        std::vector<int64_t> values(rows);
        VS_RETURN_IF_ERROR(
            reader.GetBytes(values.data(), rows * sizeof(int64_t)));
        auto col = std::make_shared<Int64Column>();
        col->Reserve(rows);
        for (size_t r = 0; r < rows; ++r) {
          if (!nulls.empty() && nulls[r] != 0) {
            col->AppendNull();
          } else {
            col->Append(values[r]);
          }
        }
        columns.push_back(std::move(col));
        break;
      }
      case DataType::kDouble: {
        std::vector<double> values(rows);
        VS_RETURN_IF_ERROR(
            reader.GetBytes(values.data(), rows * sizeof(double)));
        auto col = std::make_shared<DoubleColumn>();
        col->Reserve(rows);
        for (size_t r = 0; r < rows; ++r) {
          if (!nulls.empty() && nulls[r] != 0) {
            col->AppendNull();
          } else {
            col->Append(values[r]);
          }
        }
        columns.push_back(std::move(col));
        break;
      }
      case DataType::kString: {
        VS_ASSIGN_OR_RETURN(uint32_t dict_size, reader.GetU32());
        auto col = std::make_shared<CategoricalColumn>();
        col->Reserve(rows);
        for (uint32_t d = 0; d < dict_size; ++d) {
          VS_ASSIGN_OR_RETURN(uint32_t len, reader.GetU32());
          VS_ASSIGN_OR_RETURN(std::string label, reader.GetString(len));
          const int32_t code = col->InternLabel(label);
          if (code != static_cast<int32_t>(d)) {
            return vs::Status::InvalidArgument(
                "duplicate dictionary entry: " + label);
          }
        }
        std::vector<int32_t> codes(rows);
        VS_RETURN_IF_ERROR(
            reader.GetBytes(codes.data(), rows * sizeof(int32_t)));
        for (size_t r = 0; r < rows; ++r) {
          const int32_t code = codes[r];
          if (code == CategoricalColumn::kNullCode) {
            col->AppendNull();
          } else if (code >= 0 && code < col->cardinality()) {
            col->AppendCode(code);
          } else {
            return vs::Status::InvalidArgument(vs::StrFormat(
                "dictionary code %d out of range at row %zu", code, r));
          }
        }
        columns.push_back(std::move(col));
        break;
      }
      default:
        return vs::Status::InvalidArgument("null-typed column in file");
    }
  }
  if (!reader.AtEnd()) {
    return vs::Status::InvalidArgument("trailing bytes after table data");
  }
  VS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  return Table::Make(std::move(schema), std::move(columns));
}

vs::Status WriteTableFile(const Table& table, const std::string& path) {
  VS_ASSIGN_OR_RETURN(std::string bytes, SerializeTable(table));
  std::ofstream out(path, std::ios::binary);
  if (!out) return vs::Status::IOError("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return vs::Status::IOError("write failed: " + path);
  return vs::Status::OK();
}

vs::Result<Table> ReadTableFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return vs::Status::IOError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeTable(buffer.str());
}

// ---- TableStreamWriter ---------------------------------------------------

TableStreamWriter::TableStreamWriter(std::FILE* file, Schema schema,
                                     uint64_t num_rows)
    : file_(file), schema_(std::move(schema)), num_rows_(num_rows) {}

TableStreamWriter::~TableStreamWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

vs::Result<std::unique_ptr<TableStreamWriter>> TableStreamWriter::Open(
    const std::string& path, const Schema& schema, uint64_t num_rows) {
  if (schema.num_fields() == 0) {
    return vs::Status::InvalidArgument("cannot stream an empty schema");
  }
  for (const Field& field : schema.fields()) {
    if (field.type != DataType::kInt64 && field.type != DataType::kDouble &&
        field.type != DataType::kString) {
      return vs::Status::NotSupported("cannot stream column type " +
                                      DataTypeName(field.type));
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return vs::Status::IOError("cannot open for writing: " + path);
  }
  auto writer = std::unique_ptr<TableStreamWriter>(
      new TableStreamWriter(file, schema, num_rows));
  std::string header;
  header.append(kMagic, 4);
  PutU32(&header, kVersion);
  PutU64(&header, num_rows);
  PutU32(&header, static_cast<uint32_t>(schema.num_fields()));
  VS_RETURN_IF_ERROR(writer->WriteRaw(header.data(), header.size()));
  return writer;
}

vs::Status TableStreamWriter::WriteRaw(const void* data, size_t n) {
  if (std::fwrite(data, 1, n, file_) != n) {
    return vs::Status::IOError("stream write failed");
  }
  return vs::Status::OK();
}

vs::Status TableStreamWriter::BeginColumn(
    size_t index, const std::vector<std::string>* dictionary) {
  if (finished_) return vs::Status::FailedPrecondition("writer finished");
  if (index != current_column_) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "columns must be streamed in order: got %zu, expected %zu", index,
        current_column_));
  }
  if (index > 0 && column_rows_ != num_rows_) {
    return vs::Status::FailedPrecondition(vs::StrFormat(
        "column %zu incomplete: %llu of %llu rows", index - 1,
        static_cast<unsigned long long>(column_rows_),
        static_cast<unsigned long long>(num_rows_)));
  }
  const Field& field = schema_.field(index);
  if ((field.type == DataType::kString) != (dictionary != nullptr)) {
    return vs::Status::InvalidArgument(
        "dictionary must be given for string columns and only for them");
  }
  std::string meta;
  PutU32(&meta, static_cast<uint32_t>(field.name.size()));
  meta.append(field.name);
  PutU8(&meta, static_cast<uint8_t>(field.type));
  PutU8(&meta, static_cast<uint8_t>(field.role));
  PutU8(&meta, 0);  // has_nulls: streamed tables are null-free
  if (dictionary != nullptr) {
    PutU32(&meta, static_cast<uint32_t>(dictionary->size()));
    for (const std::string& label : *dictionary) {
      PutU32(&meta, static_cast<uint32_t>(label.size()));
      meta.append(label);
    }
    dictionary_size_ = static_cast<int32_t>(dictionary->size());
  }
  VS_RETURN_IF_ERROR(WriteRaw(meta.data(), meta.size()));
  ++current_column_;
  column_rows_ = 0;
  return vs::Status::OK();
}

vs::Status TableStreamWriter::CheckAppend(DataType expected, size_t n) {
  if (finished_) return vs::Status::FailedPrecondition("writer finished");
  if (current_column_ == 0) {
    return vs::Status::FailedPrecondition("BeginColumn not called");
  }
  const Field& field = schema_.field(current_column_ - 1);
  if (field.type != expected) {
    return vs::Status::InvalidArgument(
        vs::StrFormat("append type mismatch for column %s",
                      field.name.c_str()));
  }
  if (column_rows_ + n > num_rows_) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "column %s overflows %llu rows", field.name.c_str(),
        static_cast<unsigned long long>(num_rows_)));
  }
  return vs::Status::OK();
}

vs::Status TableStreamWriter::AppendDoubles(const double* values, size_t n) {
  VS_RETURN_IF_ERROR(CheckAppend(DataType::kDouble, n));
  VS_RETURN_IF_ERROR(WriteRaw(values, n * sizeof(double)));
  column_rows_ += n;
  return vs::Status::OK();
}

vs::Status TableStreamWriter::AppendInt64s(const int64_t* values, size_t n) {
  VS_RETURN_IF_ERROR(CheckAppend(DataType::kInt64, n));
  VS_RETURN_IF_ERROR(WriteRaw(values, n * sizeof(int64_t)));
  column_rows_ += n;
  return vs::Status::OK();
}

vs::Status TableStreamWriter::AppendCodes(const int32_t* codes, size_t n) {
  VS_RETURN_IF_ERROR(CheckAppend(DataType::kString, n));
  for (size_t i = 0; i < n; ++i) {
    if (codes[i] < 0 || codes[i] >= dictionary_size_) {
      return vs::Status::InvalidArgument(vs::StrFormat(
          "code %d outside dictionary of %d", codes[i], dictionary_size_));
    }
  }
  VS_RETURN_IF_ERROR(WriteRaw(codes, n * sizeof(int32_t)));
  column_rows_ += n;
  return vs::Status::OK();
}

vs::Status TableStreamWriter::Finish() {
  if (finished_) return vs::Status::FailedPrecondition("already finished");
  if (current_column_ != schema_.num_fields() ||
      column_rows_ != num_rows_) {
    return vs::Status::FailedPrecondition(
        vs::StrFormat("table incomplete: %zu of %zu columns, last has %llu "
                      "of %llu rows",
                      current_column_, schema_.num_fields(),
                      static_cast<unsigned long long>(column_rows_),
                      static_cast<unsigned long long>(num_rows_)));
  }
  finished_ = true;
  const int flush_failed = std::fflush(file_);
  const int close_failed = std::fclose(file_);
  file_ = nullptr;
  if (flush_failed != 0 || close_failed != 0) {
    return vs::Status::IOError("stream flush/close failed");
  }
  return vs::Status::OK();
}

}  // namespace vs::data
