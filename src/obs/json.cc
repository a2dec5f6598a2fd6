#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace dcer {

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  BeforeValue();
  after_key_ = true;  // the key string is not an element of its own
  Value(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  BeforeValue();
  out_ += '"';
  for (char c : v) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeValue();
  char buf[64];
  // %.9g round-trips every value this repo records (wall seconds, ratios)
  // and never prints "nan"-breaking exponents for the magnitudes involved.
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      BeforeValue();
      out_ += "null";
      return *this;
    case JsonValue::Type::kBool: return Value(v.boolean);
    case JsonValue::Type::kNumber: return Value(v.number);
    case JsonValue::Type::kString: return Value(std::string_view(v.text));
    case JsonValue::Type::kArray:
      BeginArray();
      for (const JsonValue& item : v.items) Value(item);
      return EndArray();
    case JsonValue::Type::kObject:
      BeginObject();
      for (const auto& [key, member] : v.members) Key(key).Value(member);
      return EndObject();
  }
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// Recursive-descent parser over one buffer. Nesting is capped so a
// malformed file cannot exhaust the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view in) : in_(in) {}

  bool Parse(JsonValue* out) {
    const bool ok = Value(out, 0);
    Space();
    return ok && pos_ == in_.size();
  }
  size_t pos() const { return pos_; }

 private:
  static bool In(std::string_view set, char c) {
    return set.find(c) != std::string_view::npos;
  }

  void Space() {
    while (pos_ < in_.size() && In(" \t\n\r", in_[pos_])) ++pos_;
  }

  // Skips whitespace, then consumes `c` if it is next.
  bool Eat(char c) {
    Space();
    if (pos_ >= in_.size() || in_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Word(std::string_view w) {
    if (in_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > 64) return false;
    if (Eat('{') || Eat('[')) {
      const bool object = in_[pos_ - 1] == '{';
      const char close = object ? '}' : ']';
      *out = JsonValue::Of(object ? JsonValue::Type::kObject
                                  : JsonValue::Type::kArray);
      if (Eat(close)) return true;
      do {
        std::string key;
        JsonValue item;
        if (object && (!Eat('"') || !String(&key) || !Eat(':'))) return false;
        if (!Value(&item, depth + 1)) return false;
        object ? out->Set(std::move(key), std::move(item))
               : out->Push(std::move(item));
      } while (Eat(','));
      return Eat(close);
    }
    if (Eat('"')) {
      *out = JsonValue::String("");
      return String(&out->text);
    }
    const bool is_true = Word("true");
    if (is_true || Word("false")) {
      *out = JsonValue::Bool(is_true);
      return true;
    }
    if (Word("null")) {
      *out = JsonValue();
      return true;
    }
    return Number(out);
  }

  // The rest of a string whose opening quote is consumed.
  bool String(std::string* out) {
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= in_.size()) return false;
      static constexpr std::string_view kEscape = "\"\\/bfnrt";
      static constexpr std::string_view kChar = "\"\\/\b\f\n\r\t";
      const char e = in_[pos_++];
      if (e != 'u') {
        const size_t i = kEscape.find(e);
        if (i == std::string_view::npos) return false;
        *out += kChar[i];
        continue;
      }
      // \uXXXX: a BMP code point, stored as UTF-8.
      unsigned code = 0;
      const char* hex = in_.data() + pos_;
      const size_t len = std::min<size_t>(4, in_.size() - pos_);
      if (std::from_chars(hex, hex + len, code, 16).ptr != hex + 4) {
        return false;
      }
      pos_ += 4;
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
    }
    return false;
  }

  bool Number(JsonValue* out) {
    // strtod accepts more than JSON does (hex, inf, a leading '+'), so the
    // span is cut to JSON's number alphabet first.
    const size_t start = pos_;
    while (pos_ < in_.size() && In("+-0123456789.eE", in_[pos_])) ++pos_;
    if (pos_ == start || in_[start] == '+') return false;
    const std::string span(in_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = JsonValue::Number(std::strtod(span.c_str(), &end));
    return end == span.c_str() + span.size();
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  JsonParser parser(text);
  if (parser.Parse(out)) return true;
  if (error != nullptr) {
    *error = "malformed JSON at byte " + std::to_string(parser.pos());
  }
  return false;
}

}  // namespace dcer
