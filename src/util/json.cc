#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <string_view>

namespace anduril {
namespace {

struct Parser {
  const std::string& text;
  size_t pos = 0;
  int depth = 0;  // arrays and objects currently open
  std::string error;

  bool Fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipSpace() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool Literal(const char* literal) {
    size_t len = std::char_traits<char>::length(literal);
    if (text.compare(pos, len, literal) == 0) {
      pos += len;
      return true;
    }
    return Fail(std::string("expected ") + literal);
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos >= text.size()) {
          break;
        }
        char esc = text[pos++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos + 4 > text.size()) {
              return Fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // Checkpoints only ever contain ASCII; encode BMP code points
            // as UTF-8 without surrogate-pair handling.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      out->push_back(c);
    }
    return Fail("unterminated string");
  }

  // Parses the object whose '{' is at pos.
  bool ParseObject(JsonValue* out) {
    ++pos;
    *out = JsonValue::Object();
    SkipSpace();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) {
        return false;
      }
      if (!Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->Set(key, std::move(value));
      SkipSpace();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return Consume('}');
    }
  }

  // Parses the array whose '[' is at pos.
  bool ParseArray(JsonValue* out) {
    ++pos;
    *out = JsonValue::Array();
    SkipSpace();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->Append(std::move(value));
      SkipSpace();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos >= text.size()) {
      return Fail("unexpected end of input");
    }
    char c = text[pos];
    if (c == '{' || c == '[') {
      // Containers recurse; bound the depth before the stack can run out.
      if (depth == JsonValue::kMaxDepth) {
        return Fail("nesting deeper than " + std::to_string(JsonValue::kMaxDepth) + " levels");
      }
      ++depth;
      bool ok = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth;
      return ok;
    }
    if (c == '"') {
      std::string value;
      if (!ParseString(&value)) {
        return false;
      }
      *out = JsonValue::Str(std::move(value));
      return true;
    }
    if (c == 't') {
      if (!Literal("true")) return false;
      *out = JsonValue::Bool(true);
      return true;
    }
    if (c == 'f') {
      if (!Literal("false")) return false;
      *out = JsonValue::Bool(false);
      return true;
    }
    if (c == 'n') {
      if (!Literal("null")) return false;
      *out = JsonValue::Null();
      return true;
    }
    // Number: the whole token must parse, as an int64 when it has no '.',
    // 'e' or 'E' and as a double otherwise; an error names its offset.
    constexpr std::string_view kNumberChars = "0123456789+-.eE";
    const size_t start = pos;
    while (pos < text.size() && kNumberChars.find(text[pos]) != std::string_view::npos) {
      ++pos;
    }
    const std::string_view token(text.data() + start, pos - start);
    if (token.empty()) {
      return Fail("unexpected character");
    }
    const bool is_double = token.find_first_of(".eE") != std::string_view::npos;
    int64_t integer = 0;
    double real = 0;
    const char* last = token.data() + token.size();
    const auto [end, ec] = is_double ? std::from_chars(token.data(), last, real)
                                     : std::from_chars(token.data(), last, integer);
    if (ec != std::errc() || end != last) {
      pos = start;
      return Fail(ec == std::errc::result_out_of_range
                      ? "number " + std::string(token) + " out of range"
                      : "malformed number " + std::string(token));
    }
    *out = is_double ? JsonValue::Double(real) : JsonValue::Int(integer);
    return true;
  }
};

}  // namespace

void AppendJsonString(const std::string& value, std::string* out) {
  out->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Int(int64_t value) {
  JsonValue v;
  v.type_ = Type::kInt;
  v.int_ = value;
  return v;
}

JsonValue JsonValue::Double(double value) {
  JsonValue v;
  v.type_ = Type::kDouble;
  v.double_ = value;
  return v;
}

JsonValue JsonValue::Str(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

JsonValue JsonValue::U64(uint64_t value) { return Str(std::to_string(value)); }

JsonValue JsonValue::Parse(const std::string& text, std::string* error) {
  Parser parser{text};
  JsonValue value;
  if (!parser.ParseValue(&value)) {
    if (error != nullptr) {
      *error = parser.error;
    }
    return JsonValue();
  }
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing content at offset " + std::to_string(parser.pos);
    }
    return JsonValue();
  }
  if (error != nullptr) {
    error->clear();
  }
  return value;
}

bool JsonValue::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

int64_t JsonValue::as_int(int64_t fallback) const {
  return type_ == Type::kInt ? int_ : fallback;
}

double JsonValue::as_double(double fallback) const {
  if (type_ == Type::kDouble) {
    return double_;
  }
  if (type_ == Type::kInt) {
    return static_cast<double>(int_);
  }
  return fallback;
}

const std::string& JsonValue::as_string() const {
  static const std::string kEmpty;
  return type_ == Type::kString ? string_ : kEmpty;
}

bool JsonValue::AsU64(uint64_t* out) const {
  if (type_ != Type::kString) {
    return false;
  }
  const char* end = string_.data() + string_.size();
  auto [ptr, ec] = std::from_chars(string_.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

void JsonValue::Append(JsonValue value) {
  type_ = Type::kArray;
  items_.push_back(std::move(value));
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  type_ = Type::kObject;
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  out.push_back('\n');
  return out;
}

void JsonValue::DumpTo(std::string* out, int depth) const {
  auto indent = [out](int n) { out->append(static_cast<size_t>(n) * 2, ' '); };
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kInt:
      *out += std::to_string(int_);
      return;
    case Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      *out += buf;
      return;
    }
    case Type::kString:
      AppendJsonString(string_, out);
      return;
    case Type::kArray: {
      if (items_.empty()) {
        *out += "[]";
        return;
      }
      *out += "[\n";
      for (size_t i = 0; i < items_.size(); ++i) {
        indent(depth + 1);
        items_[i].DumpTo(out, depth + 1);
        *out += i + 1 < items_.size() ? ",\n" : "\n";
      }
      indent(depth);
      *out += "]";
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        return;
      }
      *out += "{\n";
      for (size_t i = 0; i < members_.size(); ++i) {
        indent(depth + 1);
        AppendJsonString(members_[i].first, out);
        *out += ": ";
        members_[i].second.DumpTo(out, depth + 1);
        *out += i + 1 < members_.size() ? ",\n" : "\n";
      }
      indent(depth);
      *out += "}";
      return;
    }
  }
}

bool ReadInt(const JsonValue& value, const std::string& name, int64_t min, int64_t max,
             int64_t* out, std::string* error) {
  if (value.type() != JsonValue::Type::kInt) {
    *error = "\"" + name + "\" is not an integer";
    return false;
  }
  if (value.as_int() < min || value.as_int() > max) {
    *error = "\"" + name + "\" is " + std::to_string(value.as_int()) + ", outside [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = value.as_int();
  return true;
}

bool ReadIntMember(const JsonValue& object, const std::string& key, int64_t min, int64_t max,
                   int64_t* out, std::string* error) {
  const JsonValue* value = object.Find(key);
  return value == nullptr || ReadInt(*value, key, min, max, out, error);
}

bool ReadU64Member(const JsonValue& object, const std::string& key, uint64_t* out,
                   std::string* error) {
  const JsonValue* value = object.Find(key);
  if (value != nullptr && value->AsU64(out)) {
    return true;
  }
  *error = "\"" + key + "\" is " +
           (value == nullptr ? std::string("missing")
                             : "not an unsigned 64-bit decimal string") +
           " (u64 fields are written as decimal strings, e.g. \"42\")";
  return false;
}

}  // namespace anduril
