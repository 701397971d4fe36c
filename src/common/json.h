// Minimal JSON document model, parser and serializer — enough for the game
// file format (core/serialization.h) and the CLI, with RFC 8259 escaping
// and round-trip number formatting. No external dependencies.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace optshare {

/// A JSON value: null, bool, number (double), string, array or object.
/// Objects preserve no insertion order (keys are sorted), which keeps
/// serialization deterministic.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) { return JsonValue(b); }
  static JsonValue Number(double d) { return JsonValue(d); }
  static JsonValue Str(std::string s) { return JsonValue(std::move(s)); }
  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; precondition: matching type.
  bool AsBool() const { return std::get<bool>(value_); }
  double AsNumber() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }
  const Array& AsArray() const { return std::get<Array>(value_); }
  Array& AsArray() { return std::get<Array>(value_); }
  const Object& AsObject() const { return std::get<Object>(value_); }
  Object& AsObject() { return std::get<Object>(value_); }

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Object field write (precondition: is_object()).
  void Set(const std::string& key, JsonValue v);
  /// Array append (precondition: is_array()).
  void Append(JsonValue v);
  /// Array capacity hint (precondition: is_array()) — the serializers call
  /// it where the element count is known up front, so the hot-path arrays
  /// (ledger vectors, tenant id lists) grow exactly once.
  void Reserve(size_t n);

  /// Serializes; `indent` < 0 emits compact JSON, otherwise pretty-prints
  /// with that many spaces per level.
  std::string Dump(int indent = -1) const;
  /// Appends the serialization to *out instead of allocating a fresh
  /// string — the wire hot path reuses one scratch buffer across requests.
  void DumpTo(std::string* out, int indent = -1) const;

  /// Parses a complete JSON document (rejects trailing garbage).
  static Result<JsonValue> Parse(std::string_view text);

  bool operator==(const JsonValue& other) const {
    return value_ == other.value_;
  }

 private:
  explicit JsonValue(std::nullptr_t) : value_(nullptr) {}
  explicit JsonValue(bool b) : value_(b) {}
  explicit JsonValue(double d) : value_(d) {}
  explicit JsonValue(std::string s) : value_(std::move(s)) {}
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Escapes a string per RFC 8259 (quotes included).
std::string JsonEscape(std::string_view s);
/// Append-form JsonEscape: precomputes the escaped length, reserves once,
/// and appends to *out — no per-string temporary, no incremental growth.
void JsonEscapeTo(std::string_view s, std::string* out);

// -- Strict-schema checks and typed object-field accessors ------------------
// One implementation for every strict schema in the codebase (wire
// protocol, snapshots, simdb documents, trace configs): a missing or
// mistyped field is an InvalidArgument of the uniform shape
// `<ctx>: field "<key>" must be a <type>`.

/// InvalidArgument `<ctx> must be an object` unless `v` is one.
Status CheckObject(const JsonValue& v, const char* ctx);
/// Unknown-field rejection, the strictness that keeps schema drift loud:
/// InvalidArgument `<ctx>: unknown field "<key>"` for the first key of the
/// object `v` that is not in `allowed`.
Status CheckFields(const JsonValue& v,
                   std::initializer_list<const char*> allowed,
                   const char* ctx);

Result<double> JsonNumberField(const JsonValue& v, const std::string& key,
                               const char* ctx);
/// A number that is integral (and within int64 range).
Result<int64_t> JsonIntField(const JsonValue& v, const std::string& key,
                             const char* ctx);
/// JsonIntField narrowed to int: a value outside int's range is not
/// "an integer" either.
Result<int> JsonInt32Field(const JsonValue& v, const std::string& key,
                           const char* ctx);
Result<std::string> JsonStringField(const JsonValue& v,
                                    const std::string& key, const char* ctx);
Result<bool> JsonBoolField(const JsonValue& v, const std::string& key,
                           const char* ctx);
/// The elements of the array at `key`.
Result<const JsonValue::Array*> JsonArrayField(const JsonValue& v,
                                               const std::string& key,
                                               const char* ctx);

}  // namespace optshare
