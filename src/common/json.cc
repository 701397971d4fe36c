#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>

#include "common/csv.h"  // FormatDouble.

namespace optshare {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& obj = AsObject();
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  AsObject()[key] = std::move(v);
}

void JsonValue::Append(JsonValue v) { AsArray().push_back(std::move(v)); }

void JsonValue::Reserve(size_t n) { AsArray().reserve(n); }

namespace {

/// Bytes `c` occupies once escaped (1 for the common passthrough case).
size_t EscapedLength(unsigned char c) {
  switch (c) {
    case '"':
    case '\\':
    case '\n':
    case '\r':
    case '\t':
    case '\b':
    case '\f':
      return 2;
    default:
      return c < 0x20 ? 6 : 1;  // \u00XX.
  }
}

const char kHexDigits[] = "0123456789abcdef";

}  // namespace

void JsonEscapeTo(std::string_view s, std::string* out) {
  size_t escaped = 0;
  for (unsigned char c : s) escaped += EscapedLength(c);
  out->reserve(out->size() + escaped + 2);
  out->push_back('"');
  if (escaped == s.size()) {
    // Nothing needs escaping: one bulk append.
    out->append(s.data(), s.size());
    out->push_back('"');
    return;
  }
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"", 2);
        break;
      case '\\':
        out->append("\\\\", 2);
        break;
      case '\n':
        out->append("\\n", 2);
        break;
      case '\r':
        out->append("\\r", 2);
        break;
      case '\t':
        out->append("\\t", 2);
        break;
      case '\b':
        out->append("\\b", 2);
        break;
      case '\f':
        out->append("\\f", 2);
        break;
      default:
        if (c < 0x20) {
          const char buf[6] = {'\\', 'u', '0', '0', kHexDigits[c >> 4],
                               kHexDigits[c & 0xF]};
          out->append(buf, sizeof(buf));
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  JsonEscapeTo(s, &out);
  return out;
}

namespace {

void DumpTo(const JsonValue& v, int indent, int depth, std::string* out) {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(
      static_cast<size_t>(indent) * static_cast<size_t>(depth + 1), ' ')
                                 : "";
  const std::string close_pad =
      pretty ? std::string(
          static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ')
             : "";
  const char* nl = pretty ? "\n" : "";

  switch (v.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += v.AsBool() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber: {
      const double d = v.AsNumber();
      // JSON has no Infinity/NaN; serialize as null per common practice.
      if (std::isnan(d) || std::isinf(d)) {
        *out += "null";
      } else {
        // Same round-trip formatting as FormatDouble, appended in place.
        char buf[32];
        const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
        (void)ec;
        out->append(buf, static_cast<size_t>(ptr - buf));
      }
      return;
    }
    case JsonValue::Type::kString:
      JsonEscapeTo(v.AsString(), out);
      return;
    case JsonValue::Type::kArray: {
      const auto& arr = v.AsArray();
      if (arr.empty()) {
        *out += "[]";
        return;
      }
      *out += '[';
      *out += nl;
      for (size_t i = 0; i < arr.size(); ++i) {
        *out += pad;
        DumpTo(arr[i], indent, depth + 1, out);
        if (i + 1 < arr.size()) *out += ',';
        *out += nl;
      }
      *out += close_pad;
      *out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      const auto& obj = v.AsObject();
      if (obj.empty()) {
        *out += "{}";
        return;
      }
      *out += '{';
      *out += nl;
      size_t i = 0;
      for (const auto& [key, value] : obj) {
        *out += pad;
        *out += JsonEscape(key);
        *out += pretty ? ": " : ":";
        DumpTo(value, indent, depth + 1, out);
        if (++i < obj.size()) *out += ',';
        *out += nl;
      }
      *out += close_pad;
      *out += '}';
      return;
    }
  }
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent) const {
  optshare::DumpTo(*this, indent, 0, out);
}

namespace {

/// Recursive-descent parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    Result<JsonValue> v = ParseValue();
    if (!v.ok()) return v;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    if (depth_ > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == 'n') {
      if (ConsumeLiteral("null")) return JsonValue::Null();
      return Error("invalid literal");
    }
    if (c == 't') {
      if (ConsumeLiteral("true")) return JsonValue::Bool(true);
      return Error("invalid literal");
    }
    if (c == 'f') {
      if (ConsumeLiteral("false")) return JsonValue::Bool(false);
      return Error("invalid literal");
    }
    if (c == '"') return ParseString();
    if (c == '[') return ParseArray();
    if (c == '{') return ParseObject();
    return ParseNumber();
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      return Error("malformed number");
    }
    return JsonValue::Number(d);
  }

  Result<JsonValue> ParseString() {
    std::string s;
    OPTSHARE_RETURN_NOT_OK(ParseRawString(&s));
    return JsonValue::Str(std::move(s));
  }

  Status ParseRawString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("short \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            // UTF-8 encode (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        *out += c;
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseArray() {
    ++depth_;
    Consume('[');
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      SkipWhitespace();
      Result<JsonValue> v = ParseValue();
      if (!v.ok()) return v;
      arr.Append(std::move(*v));
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
    --depth_;
    return arr;
  }

  Result<JsonValue> ParseObject() {
    ++depth_;
    Consume('{');
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      OPTSHARE_RETURN_NOT_OK(ParseRawString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      SkipWhitespace();
      Result<JsonValue> v = ParseValue();
      if (!v.ok()) return v;
      obj.Set(key, std::move(*v));
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
    --depth_;
    return obj;
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

Status CheckObject(const JsonValue& v, const char* ctx) {
  if (!v.is_object()) {
    return Status::InvalidArgument(std::string(ctx) + " must be an object");
  }
  return Status::OK();
}

Status CheckFields(const JsonValue& v,
                   std::initializer_list<const char*> allowed,
                   const char* ctx) {
  for (const auto& [key, value] : v.AsObject()) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(std::string(ctx) + ": unknown field \"" +
                                     key + "\"");
    }
  }
  return Status::OK();
}

Result<double> JsonNumberField(const JsonValue& v, const std::string& key,
                               const char* ctx) {
  const JsonValue* field = v.Find(key);
  if (field == nullptr || !field->is_number()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be a number");
  }
  return field->AsNumber();
}

Result<int64_t> JsonIntField(const JsonValue& v, const std::string& key,
                             const char* ctx) {
  Result<double> number = JsonNumberField(v, key, ctx);
  if (!number.ok()) return number.status();
  // The range guard keeps the cast defined; 2^63 is exactly representable.
  if (*number != std::floor(*number) ||
      *number < -9223372036854775808.0 || *number >= 9223372036854775808.0) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be an integer");
  }
  return static_cast<int64_t>(*number);
}

Result<int> JsonInt32Field(const JsonValue& v, const std::string& key,
                           const char* ctx) {
  Result<int64_t> number = JsonIntField(v, key, ctx);
  if (!number.ok()) return number.status();
  if (*number < std::numeric_limits<int>::min() ||
      *number > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be an integer");
  }
  return static_cast<int>(*number);
}

Result<std::string> JsonStringField(const JsonValue& v,
                                    const std::string& key, const char* ctx) {
  const JsonValue* field = v.Find(key);
  if (field == nullptr || !field->is_string()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be a string");
  }
  return field->AsString();
}

Result<bool> JsonBoolField(const JsonValue& v, const std::string& key,
                           const char* ctx) {
  const JsonValue* field = v.Find(key);
  if (field == nullptr || !field->is_bool()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be a boolean");
  }
  return field->AsBool();
}

Result<const JsonValue::Array*> JsonArrayField(const JsonValue& v,
                                               const std::string& key,
                                               const char* ctx) {
  const JsonValue* field = v.Find(key);
  if (field == nullptr || !field->is_array()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be an array");
  }
  return &field->AsArray();
}

}  // namespace optshare
