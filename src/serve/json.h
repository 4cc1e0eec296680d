// serve/json — a small recursive-descent JSON reader/writer for the wire
// protocol. The obs layer only *writes* JSON (reports, bench files); the
// serving layer also has to *parse* untrusted request payloads, so this
// is a strict parser: it rejects trailing garbage, unterminated strings,
// bad escapes, and nesting deeper than a fixed bound (stack safety
// against hostile frames). Numbers are stored as doubles; a non-negative
// integer literal also keeps its exact value up to 2^64 - 1, so 64-bit
// fields such as seeds survive a round trip that a double would round.
#ifndef CQABENCH_SERVE_JSON_H_
#define CQABENCH_SERVE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cqa::serve {

/// One JSON value. Objects keep their members in insertion order (the
/// protocol never relies on ordering, but deterministic serialization
/// keeps tests and golden files stable).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses exactly one JSON value spanning the whole input. Returns
  /// false (and sets *error with an offset) on any syntax violation.
  static bool Parse(const std::string& text, JsonValue* out,
                    std::string* error);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  /// A number holding an exact unsigned integer (see AsUint64).
  bool is_exact_uint64() const { return exact_; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  /// The number as an unsigned integer: exact when it was parsed from (or
  /// made as) a non-negative integer literal, else the truncated double,
  /// or `fallback` when the double is negative or beyond 2^64.
  uint64_t AsUint64(uint64_t fallback) const;
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const {
    return object_;
  }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed member accessors with fallbacks, for flat request decoding.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  double GetNumber(const std::string& key, double fallback) const;
  uint64_t GetUint64(const std::string& key, uint64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Compact serialization (no whitespace), suitable for framing.
  std::string Serialize() const;

  // Construction helpers for response building.
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeUint64(uint64_t n);  // Serializes exactly.
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  void Append(JsonValue v);                      // Arrays.
  void Set(const std::string& key, JsonValue v); // Objects (no dedup).

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool exact_ = false;  // number_ came from the integer in uint_.
  uint64_t uint_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Escapes a string for embedding in a JSON document (quotes not
/// included). Control characters become \u00XX.
std::string JsonEscape(const std::string& s);

}  // namespace cqa::serve

#endif  // CQABENCH_SERVE_JSON_H_
