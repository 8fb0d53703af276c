// Minimal JSON value type with a parser and serializer, for the explorer's
// checkpoint files. Supports objects, arrays, strings (with the standard
// escapes), 64-bit integers, doubles, booleans, and null — deliberately no
// more. Object keys keep insertion order so serialization is byte-stable.

#ifndef ANDURIL_SRC_UTIL_JSON_H_
#define ANDURIL_SRC_UTIL_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace anduril {

class JsonValue {
 public:
  enum class Type : uint8_t { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Int(int64_t value);
  static JsonValue Double(double value);
  static JsonValue Str(std::string value);
  static JsonValue Array();
  static JsonValue Object();
  // An unsigned 64-bit integer as a decimal string: JSON numbers lose
  // precision past 2^53, so every u64 field the project writes rides this way.
  static JsonValue U64(uint64_t value);

  // Deepest nesting of arrays and objects Parse accepts. Every format the
  // project writes nests at most 5 levels; the bound keeps the recursive
  // parser's stack use small on hostile input (a file of 200k '[').
  static constexpr int kMaxDepth = 64;

  // Parses `text`; returns a kNull value and sets *error on failure. Input
  // nested deeper than kMaxDepth is a parse error, reported with the offset
  // of the first bracket past the bound.
  static JsonValue Parse(const std::string& text, std::string* error);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool(bool fallback = false) const;
  // `fallback` unless this value is an integer; a double is not converted.
  int64_t as_int(int64_t fallback = 0) const;
  double as_double(double fallback = 0.0) const;
  const std::string& as_string() const;
  // Strict inverse of U64(): true, with *out set, only when this value is a
  // string that is, as a whole, a decimal number in [0, 2^64). "12abc", "-1",
  // "", an out-of-range number and a non-string value are all rejected.
  bool AsU64(uint64_t* out) const;

  // --- Arrays ----------------------------------------------------------------
  void Append(JsonValue value);
  const std::vector<JsonValue>& items() const { return items_; }

  // --- Objects ---------------------------------------------------------------
  void Set(const std::string& key, JsonValue value);
  // Returns nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }

  // Serializes with 2-space indentation and a trailing newline at top level.
  std::string Dump() const;

 private:
  void DumpTo(std::string* out, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Appends `value` to *out as a quoted JSON string literal, with the standard
// escapes and \u00XX for the other control characters.
void AppendJsonString(const std::string& value, std::string* out);

// `value` into *out: it must be a JSON integer in [min, max]. On failure
// returns false and sets *error to a message naming `name`.
bool ReadInt(const JsonValue& value, const std::string& name, int64_t min, int64_t max,
             int64_t* out, std::string* error);

// Integer member `key` of `object`, when present, into *out: it must be a
// JSON integer in [min, max], a range `Int` holds. An absent member leaves
// *out as it is (the caller's default). On failure returns false and sets
// *error to a message naming `key`.
bool ReadIntMember(const JsonValue& object, const std::string& key, int64_t min, int64_t max,
                   int64_t* out, std::string* error);
template <typename Int>
bool ReadIntMember(const JsonValue& object, const std::string& key, int64_t min, int64_t max,
                   Int* out, std::string* error) {
  int64_t value = *out;
  const bool ok = ReadIntMember(object, key, min, max, &value, error);
  *out = static_cast<Int>(value);
  return ok;
}

// AsU64 over member `key` of `object`. On failure (member missing or not a
// u64 string) returns false and sets *error to a message naming `key`.
bool ReadU64Member(const JsonValue& object, const std::string& key, uint64_t* out,
                   std::string* error);

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_JSON_H_
