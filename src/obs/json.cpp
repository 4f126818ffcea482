#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace mcnet::obs {

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) throw std::logic_error("Json::operator[]: not an object");
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(key, Json());
  return members_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) throw std::logic_error("Json::push_back: not an array");
  items_.push_back(std::move(value));
}

std::size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return items_.size();
    case Type::kObject:
      return members_.size();
    default:
      return 0;
  }
}

void Json::append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void Json::append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Integers print without an exponent or trailing zeros; everything else
  // round-trips through %.17g.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      append_number(out, number_);
      break;
    case Type::kString:
      append_escaped(out, string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        append_escaped(out, members_[i].first);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Containers parse by recursion, so their nesting is capped: a document
  /// of deeply nested brackets fails by name instead of overflowing the
  /// stack.
  static constexpr int kMaxDepth = 256;

  std::optional<Json> run(std::string* error) {
    std::optional<Json> value = parse_value();
    if (value) {
      skip_ws();
      if (pos_ != text_.size()) {
        value.reset();
        error_ = "trailing characters after document";
      }
    }
    if (!value && error != nullptr) {
      *error = error_ + " (at byte " + std::to_string(pos_) + ")";
    }
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    error_ = "invalid literal";
    return false;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      error_ = "unexpected end of input";
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          error_ = "nesting deeper than " + std::to_string(kMaxDepth) + " levels";
          return std::nullopt;
        }
        ++depth_;
        std::optional<Json> value = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"': {
        std::optional<std::string> s = parse_string();
        if (!s) return std::nullopt;
        return Json(std::move(*s));
      }
      case 't':
        if (!expect_literal("true")) return std::nullopt;
        return Json(true);
      case 'f':
        if (!expect_literal("false")) return std::nullopt;
        return Json(false);
      case 'n':
        if (!expect_literal("null")) return std::nullopt;
        return Json(nullptr);
      default:
        return parse_number();
    }
  }

  std::optional<Json> parse_object() {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        error_ = "expected ':' in object";
        return std::nullopt;
      }
      std::optional<Json> value = parse_value();
      if (!value) return std::nullopt;
      obj[*key] = std::move(*value);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      error_ = "expected ',' or '}' in object";
      return std::nullopt;
    }
  }

  std::optional<Json> parse_array() {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      std::optional<Json> value = parse_value();
      if (!value) return std::nullopt;
      arr.push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      error_ = "expected ',' or ']' in array";
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      error_ = "expected string";
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            error_ = "truncated \\u escape";
            return std::nullopt;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              error_ = "invalid \\u escape";
              return std::nullopt;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs land as two
          // 3-byte sequences; good enough for our ASCII-dominated files).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          error_ = "invalid escape character";
          return std::nullopt;
      }
    }
    error_ = "unterminated string";
    return std::nullopt;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      error_ = "invalid number";
      pos_ = start;
      return std::nullopt;
    }
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open around pos_
  std::string error_ = "parse error";
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace mcnet::obs
