#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace ddnn::obs {

double JsonValue::number() const {
  if (kind == Kind::kInt) return static_cast<double>(i);
  DDNN_CHECK(kind == Kind::kDouble, "JSON value is not a number");
  return d;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  DDNN_CHECK(v != nullptr, "JSON object has no member '" << key << "'");
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    DDNN_CHECK(pos_ == text_.size(),
               "trailing JSON garbage at byte " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    DDNN_CHECK(pos_ < text_.size(),
               "unexpected end of JSON at byte " << pos_);
    return text_[pos_];
  }

  void expect(char c) {
    DDNN_CHECK(peek() == c, "expected '" << c << "' at byte " << pos_
                                         << ", found '" << text_[pos_]
                                         << "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.s = string();
        return v;
      }
      case 't': {
        JsonValue v;
        DDNN_CHECK(consume_literal("true"), "bad literal at byte " << pos_);
        v.kind = JsonValue::Kind::kBool;
        v.b = true;
        return v;
      }
      case 'f': {
        JsonValue v;
        DDNN_CHECK(consume_literal("false"), "bad literal at byte " << pos_);
        v.kind = JsonValue::Kind::kBool;
        v.b = false;
        return v;
      }
      case 'n': {
        JsonValue v;
        DDNN_CHECK(consume_literal("null"), "bad literal at byte " << pos_);
        return v;
      }
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          DDNN_CHECK(pos_ + 4 <= text_.size(),
                     "truncated \\u escape at byte " << pos_);
          const unsigned code = static_cast<unsigned>(
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          // The repo only emits \u00xx control escapes; encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          DDNN_CHECK(false, "bad escape '\\" << esc << "' at byte " << pos_);
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '.' || c == 'e' || c == 'E') is_double = true;
      if (c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' ||
          (c >= '0' && c <= '9')) {
        ++pos_;
        continue;
      }
      break;
    }
    DDNN_CHECK(pos_ > start, "expected a JSON value at byte " << start);
    const std::string token = text_.substr(start, pos_ - start);
    JsonValue v;
    char* end = nullptr;
    if (!is_double) {
      errno = 0;
      const long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        v.kind = JsonValue::Kind::kInt;
        v.i = static_cast<std::int64_t>(parsed);
        return v;
      }
    }
    end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    DDNN_CHECK(end != nullptr && *end == '\0',
               "bad JSON number '" << token << "' at byte " << start);
    v.kind = JsonValue::Kind::kDouble;
    v.d = parsed;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_number(double v) {
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  return json_double(v);
}

std::string json_us(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace ddnn::obs
