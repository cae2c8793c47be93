#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"  // JsonEscape

namespace vs::serve {

namespace {

/// Appends a Unicode code point as UTF-8.
void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

/// Recursive-descent parser over a string_view; positions are byte offsets.
class JsonParser {
 public:
  JsonParser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  vs::Result<JsonValue> Run() {
    JsonValue value;
    VS_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  vs::Status Error(const std::string& what) const {
    return vs::Status::InvalidArgument(
        "json: " + what + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  vs::Status ParseValue(JsonValue* out, int depth) {
    if (depth > max_depth_) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
        if (!ConsumeWord("true")) return Error("invalid literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = true;
        return vs::Status::OK();
      case 'f':
        if (!ConsumeWord("false")) return Error("invalid literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = false;
        return vs::Status::OK();
      case 'n':
        if (!ConsumeWord("null")) return Error("invalid literal");
        out->type_ = JsonValue::Type::kNull;
        return vs::Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  vs::Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return vs::Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      VS_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      VS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return vs::Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  vs::Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return vs::Status::OK();
    while (true) {
      JsonValue value;
      VS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return vs::Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  vs::Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return vs::Status::OK();
      }
      if (c == '\\') {
        VS_RETURN_IF_ERROR(ParseEscape(out));
        continue;
      }
      if (c < 0x20) return Error("unescaped control character in string");
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
    return Error("unterminated string");
  }

  vs::Status ParseEscape(std::string* out) {
    ++pos_;  // backslash
    if (pos_ >= text_.size()) return Error("truncated escape");
    const char c = text_[pos_++];
    switch (c) {
      case '"': out->push_back('"'); return vs::Status::OK();
      case '\\': out->push_back('\\'); return vs::Status::OK();
      case '/': out->push_back('/'); return vs::Status::OK();
      case 'b': out->push_back('\b'); return vs::Status::OK();
      case 'f': out->push_back('\f'); return vs::Status::OK();
      case 'n': out->push_back('\n'); return vs::Status::OK();
      case 'r': out->push_back('\r'); return vs::Status::OK();
      case 't': out->push_back('\t'); return vs::Status::OK();
      case 'u': {
        uint32_t cp = 0;
        VS_RETURN_IF_ERROR(ParseHex4(&cp));
        // Combine a UTF-16 surrogate pair when one follows.
        if (cp >= 0xD800 && cp <= 0xDBFF &&
            text_.substr(pos_, 2) == "\\u") {
          const size_t saved = pos_;
          pos_ += 2;
          uint32_t low = 0;
          VS_RETURN_IF_ERROR(ParseHex4(&low));
          if (low >= 0xDC00 && low <= 0xDFFF) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else {
            pos_ = saved;  // lone high surrogate; emit replacement below
          }
        }
        if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;  // lone surrogate
        AppendUtf8(out, cp);
        return vs::Status::OK();
      }
      default:
        return Error("invalid escape character");
    }
  }

  vs::Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return Error("invalid \\u escape digit");
    }
    pos_ += 4;
    *out = value;
    return vs::Status::OK();
  }

  vs::Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      return Error("invalid number");
    }
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = value;
    return vs::Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  const int max_depth_;
};

vs::Result<JsonValue> JsonValue::Parse(std::string_view text, int max_depth) {
  return JsonParser(text, max_depth).Run();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) found = &value;  // last occurrence wins
  }
  return found;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value()
                                          : std::move(fallback);
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

int64_t JsonValue::GetInt(std::string_view key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  const double d = v->number_value();
  // The double-to-int64 cast is UB outside [-2^63, 2^63); both bounds are
  // exactly representable as doubles. Non-integral values also fall back.
  if (!(d >= -9223372036854775808.0) || !(d < 9223372036854775808.0) ||
      std::trunc(d) != d) {
    return fallback;
  }
  return static_cast<int64_t>(d);
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
}

vs::Result<std::string> JsonValue::RequiredString(
    std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    return vs::Status::InvalidArgument("missing field: " + std::string(key));
  }
  if (!v->is_string()) {
    return vs::Status::InvalidArgument("field must be a string: " +
                                       std::string(key));
  }
  return v->string_value();
}

vs::Result<double> JsonValue::RequiredNumber(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    return vs::Status::InvalidArgument("missing field: " + std::string(key));
  }
  if (!v->is_number()) {
    return vs::Status::InvalidArgument("field must be a number: " +
                                       std::string(key));
  }
  return v->number_value();
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  out += obs::JsonEscape(s);
  out += '"';
  return out;
}

namespace {

void WriteValue(const JsonValue& value, std::string* out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += value.bool_value() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber: {
      // 17 significant digits round-trip any finite double through strtod.
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value.number_value());
      *out += buffer;
      return;
    }
    case JsonValue::Type::kString:
      *out += JsonQuote(value.string_value());
      return;
    case JsonValue::Type::kArray: {
      *out += '[';
      bool first = true;
      for (const JsonValue& element : value.array()) {
        if (!first) *out += ',';
        first = false;
        WriteValue(element, out);
      }
      *out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) *out += ',';
        first = false;
        *out += JsonQuote(key);
        *out += ':';
        WriteValue(member, out);
      }
      *out += '}';
      return;
    }
  }
}

}  // namespace

std::string WriteJson(const JsonValue& value) {
  std::string out;
  WriteValue(value, &out);
  return out;
}

bool JsonEquals(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.bool_value() == b.bool_value();
    case JsonValue::Type::kNumber:
      return a.number_value() == b.number_value();
    case JsonValue::Type::kString:
      return a.string_value() == b.string_value();
    case JsonValue::Type::kArray: {
      if (a.array().size() != b.array().size()) return false;
      for (size_t i = 0; i < a.array().size(); ++i) {
        if (!JsonEquals(a.array()[i], b.array()[i])) return false;
      }
      return true;
    }
    case JsonValue::Type::kObject: {
      if (a.members().size() != b.members().size()) return false;
      for (size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].first != b.members()[i].first) return false;
        if (!JsonEquals(a.members()[i].second, b.members()[i].second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace vs::serve
