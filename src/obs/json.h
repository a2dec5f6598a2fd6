#ifndef DCER_OBS_JSON_H_
#define DCER_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcer {

struct JsonValue;

/// Minimal streaming JSON writer: replaces the hand-rolled fprintf emitters
/// that used to live in bench/micro_core and eval/runner. Handles commas,
/// nesting and string escaping; the caller provides structure via
/// BeginObject/Key/Value calls. Output is a single line (no pretty
/// printing).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits the key of the next object member. Must be followed by a value
  /// (or Begin{Object,Array}).
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(unsigned v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(bool v);
  /// A whole parsed (or built) document, members in their stored order.
  JsonWriter& Value(const JsonValue& v);

  /// Key + value in one call.
  template <typename T>
  JsonWriter& KV(std::string_view key, const T& v) {
    Key(key);
    return Value(v);
  }

  /// The document so far. Valid JSON once every Begin has been Ended.
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true once it has at least one element.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

/// A JSON document held in memory: what ParseJson returns and what
/// JsonWriter::Value(const JsonValue&) writes. Numbers are doubles (every
/// integer this repo records is far below 2^53) and objects keep their
/// members in document order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  static JsonValue Of(Type t) {
    JsonValue v;
    v.type = t;
    return v;
  }
  static JsonValue Bool(bool b) {
    JsonValue v = Of(Type::kBool);
    v.boolean = b;
    return v;
  }
  static JsonValue Number(double n) {
    JsonValue v = Of(Type::kNumber);
    v.number = n;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v = Of(Type::kString);
    v.text = std::move(s);
    return v;
  }

  /// Appends an array item / an object member (keys are not de-duplicated).
  JsonValue& Push(JsonValue v) {
    items.push_back(std::move(v));
    return *this;
  }
  JsonValue& Set(std::string key, JsonValue v) {
    members.emplace_back(std::move(key), std::move(v));
    return *this;
  }
  /// The first member named `key`, or nullptr (also for non-objects).
  const JsonValue* Find(std::string_view key) const;

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;
};

/// Parses one JSON document (RFC 8259, \u escapes limited to the BMP).
/// Returns false and sets *error (with a byte offset) on malformed input or
/// trailing garbage.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace dcer

#endif  // DCER_OBS_JSON_H_
