#include "report/json.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace urlf::report {

Json& Json::operator[](const std::string& key) {
  auto* object = std::get_if<Object>(&value_);
  if (object == nullptr) {
    if (isNull()) {
      value_ = Object{};
      object = std::get_if<Object>(&value_);
    } else {
      throw std::logic_error("Json::operator[]: not an object");
    }
  }
  return (*object)[key];
}

const Json* Json::find(const std::string& key) const {
  const auto* object = std::get_if<Object>(&value_);
  if (object == nullptr) return nullptr;
  const auto it = object->find(key);
  return it == object->end() ? nullptr : &it->second;
}

void Json::push(Json item) {
  auto* array = std::get_if<Array>(&value_);
  if (array == nullptr) {
    if (isNull()) {
      value_ = Array{};
      array = std::get_if<Array>(&value_);
    } else {
      throw std::logic_error("Json::push: not an array");
    }
  }
  array->push_back(std::move(item));
}

std::string Json::escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Json::dumpTo(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? "\n" + std::string(static_cast<std::size_t>(indent) *
                                          (static_cast<std::size_t>(depth) + 1),
                                      ' ')
                 : "";
  const std::string closePad =
      indent > 0
          ? "\n" + std::string(
                       static_cast<std::size_t>(indent) *
                           static_cast<std::size_t>(depth),
                       ' ')
          : "";

  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const auto* d = std::get_if<double>(&value_)) {
    if (*d == std::floor(*d) && std::abs(*d) < 1e15) {
      out += std::to_string(static_cast<std::int64_t>(*d));
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.10g", *d);
      out += buf;
    }
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    out += '"';
    out += escape(*s);
    out += '"';
  } else if (const auto* array = std::get_if<Array>(&value_)) {
    if (array->empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const auto& item : *array) {
      if (!first) out += ',';
      first = false;
      out += pad;
      item.dumpTo(out, indent, depth + 1);
    }
    out += closePad;
    out += ']';
  } else if (const auto* object = std::get_if<Object>(&value_)) {
    if (object->empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, item] : *object) {
      if (!first) out += ',';
      first = false;
      out += pad;
      out += '"';
      out += escape(key);
      out += "\":";
      if (indent > 0) out += ' ';
      item.dumpTo(out, indent, depth + 1);
    }
    out += closePad;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

namespace {

/// Deepest array/object nesting parse() accepts. Every document the repo
/// writes (journals, checkpoints, session bodies) nests fewer than ten
/// levels; the bound keeps a hostile body from exhausting the stack of the
/// thread that parses it.
constexpr int kMaxNestingDepth = 128;

/// Recursive-descent JSON parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    skipWhitespace();
    auto value = parseValue(0);
    if (!value) return std::nullopt;
    skipWhitespace();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  std::optional<Json> parseValue(int depth) {
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{':
      case '[':
        if (depth >= kMaxNestingDepth) return std::nullopt;
        return text_[pos_] == '{' ? parseObject(depth + 1)
                                  : parseArray(depth + 1);
      case '"': {
        auto s = parseString();
        if (!s) return std::nullopt;
        return Json::string(*s);
      }
      case 't':
        return consumeLiteral("true") ? std::optional(Json::boolean(true))
                                      : std::nullopt;
      case 'f':
        return consumeLiteral("false") ? std::optional(Json::boolean(false))
                                       : std::nullopt;
      case 'n':
        return consumeLiteral("null") ? std::optional(Json::null())
                                      : std::nullopt;
      default: return parseNumber();
    }
  }

  std::optional<Json> parseObject(int depth) {
    if (!consume('{')) return std::nullopt;
    Json out = Json::object();
    skipWhitespace();
    if (consume('}')) return out;
    while (true) {
      skipWhitespace();
      auto key = parseString();
      if (!key) return std::nullopt;
      skipWhitespace();
      if (!consume(':')) return std::nullopt;
      skipWhitespace();
      auto value = parseValue(depth);
      if (!value) return std::nullopt;
      out[*key] = std::move(*value);
      skipWhitespace();
      if (consume(',')) continue;
      if (consume('}')) return out;
      return std::nullopt;
    }
  }

  std::optional<Json> parseArray(int depth) {
    if (!consume('[')) return std::nullopt;
    Json out = Json::array();
    skipWhitespace();
    if (consume(']')) return out;
    while (true) {
      skipWhitespace();
      auto value = parseValue(depth);
      if (!value) return std::nullopt;
      out.push(std::move(*value));
      skipWhitespace();
      if (consume(',')) continue;
      if (consume(']')) return out;
      return std::nullopt;
    }
  }

  std::optional<std::string> parseString() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
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
          if (pos_ + 4 > text_.size()) return std::nullopt;
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
              return std::nullopt;
          }
          // Encode the BMP code point as UTF-8 (surrogates unsupported).
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
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parseNumber() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return Json::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

std::optional<std::int64_t> boundedInteger(double value, std::int64_t min,
                                           std::int64_t max) {
  // 2^63 is the first double past int64's range (static_cast<double> of
  // INT64_MAX rounds up to it), so compare against it before casting.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(value >= -kTwo63 && value < kTwo63) || value != std::floor(value))
    return std::nullopt;
  const auto integer = static_cast<std::int64_t>(value);
  if (integer < min || integer > max) return std::nullopt;
  return integer;
}

}  // namespace urlf::report
