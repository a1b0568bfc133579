#include "common/telemetry/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/sealed_file.hpp"

namespace tkmc::telemetry {

std::string escapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue v = parseValue();
    skipSpace();
    require(pos_ == text_.size(), err("trailing characters after document"));
    return v;
  }

 private:
  std::string err(const std::string& what) const {
    return "json: " + what + " at offset " + std::to_string(pos_);
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    require(pos_ < text_.size(), err("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    require(peek() == c, err(std::string("expected '") + c + "'"));
    ++pos_;
  }

  bool consumeLiteral(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parseValue() {
    skipSpace();
    const char c = peek();
    JsonValue v;
    if (c == '{') return parseObject();
    if (c == '[') return parseArray();
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.str = parseString();
      return v;
    }
    if (consumeLiteral("null")) return v;
    if (consumeLiteral("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consumeLiteral("false")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = false;
      return v;
    }
    return parseNumber();
  }

  JsonValue parseNumber() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double parsed = std::strtod(begin, &end);
    require(end != begin, err("invalid value"));
    pos_ += static_cast<std::size_t>(end - begin);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = parsed;
    return v;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), err("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      require(pos_ < text_.size(), err("unterminated escape"));
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          require(pos_ + 4 <= text_.size(), err("truncated \\u escape"));
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              throw Error(err("invalid \\u escape"));
          }
          // The telemetry writers only escape control characters; decode
          // the ASCII range and substitute '?' beyond it.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: throw Error(err("unknown escape"));
      }
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skipSpace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parseValue());
      skipSpace();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      require(c == ',', err("expected ',' or ']'"));
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skipSpace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipSpace();
      std::string key = parseString();
      skipSpace();
      expect(':');
      v.object.emplace_back(std::move(key), parseValue());
      skipSpace();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      require(c == ',', err("expected ',' or '}'"));
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parseDocument();
}

void publishJson(const std::string& path, const std::string& json) {
  const std::string text = json + "\n";
  if (faultFires("telemetry.write_tear")) {
    // Simulated crash mid-dump: half the text reaches the temp file, the
    // rename never happens, and the previous `path` (if any) survives
    // untouched.
    publishAtomic(path + ".tmp",
                  std::string_view(text).substr(0, text.size() / 2));
    throw IoError("injected telemetry write tear: " + path + ".tmp");
  }
  publishAtomic(path, text);
}

}  // namespace tkmc::telemetry
