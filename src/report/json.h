#ifndef URLF_REPORT_JSON_H
#define URLF_REPORT_JSON_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace urlf::report {

/// A small JSON value/writer — enough to export results and scan data in a
/// machine-readable form (the paper published its data; so do we).
/// Build values with the static factories, serialize with dump().
class Json {
 public:
  using Array = std::vector<Json>;
  /// std::map keeps key order deterministic across runs.
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}

  static Json null() { return Json(); }
  static Json boolean(bool v) { return Json(Value{v}); }
  static Json number(double v) { return Json(Value{v}); }
  static Json number(std::int64_t v) {
    return Json(Value{static_cast<double>(v)});
  }
  static Json string(std::string_view v) {
    return Json(Value{std::string(v)});
  }
  static Json array(Array items = {}) { return Json(Value{std::move(items)}); }
  static Json object(Object members = {}) {
    return Json(Value{std::move(members)});
  }

  [[nodiscard]] bool isNull() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool isObject() const {
    return std::holds_alternative<Object>(value_);
  }
  [[nodiscard]] bool isArray() const {
    return std::holds_alternative<Array>(value_);
  }

  /// Member access; inserts on objects (like std::map::operator[]).
  /// Throws std::logic_error when the value is not an object.
  Json& operator[](const std::string& key);
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Append to an array value. Throws when not an array.
  void push(Json item);

  /// Typed accessors: non-null only when the value holds that type.
  [[nodiscard]] const Array* asArray() const {
    return std::get_if<Array>(&value_);
  }
  [[nodiscard]] const Object* asObject() const {
    return std::get_if<Object>(&value_);
  }
  [[nodiscard]] const std::string* asString() const {
    return std::get_if<std::string>(&value_);
  }
  [[nodiscard]] const double* asNumber() const {
    return std::get_if<double>(&value_);
  }
  [[nodiscard]] const bool* asBool() const { return std::get_if<bool>(&value_); }

  /// Read the member `key`, a count or a duration, into `out`, checked by
  /// boundedInteger against [0, the largest Int]. Returns false when the
  /// member is a number outside that; an absent or non-numeric member, like
  /// a refused one, leaves `out` as it is.
  template <typename Int>
  [[nodiscard]] bool readCount(const std::string& key, Int& out) const;

  /// Serialize. `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse a JSON document. Returns nullopt on any syntax error or
  /// trailing garbage. Supports the standard scalar types, arrays, objects,
  /// and \uXXXX escapes for the BMP (encoded as UTF-8).
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

  /// Escape a string for embedding in JSON (without the quotes).
  [[nodiscard]] static std::string escape(std::string_view text);

 private:
  using Value =
      std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;
  explicit Json(Value value) : value_(std::move(value)) {}

  void dumpTo(std::string& out, int indent, int depth) const;

  Value value_;
};

/// `value` as an integer in [min, max]; nullopt when it is fractional, NaN
/// or out of range. Casting such a double straight to an integer is
/// undefined, so every integer read from JSON goes through here.
[[nodiscard]] std::optional<std::int64_t> boundedInteger(double value,
                                                         std::int64_t min,
                                                         std::int64_t max);

template <typename Int>
bool Json::readCount(const std::string& key, Int& out) const {
  const Json* member = find(key);
  if (member == nullptr || member->asNumber() == nullptr) return true;
  constexpr auto kMax = static_cast<std::int64_t>(
      std::min<std::uintmax_t>(std::numeric_limits<Int>::max(),
                               std::numeric_limits<std::int64_t>::max()));
  const auto value = boundedInteger(*member->asNumber(), 0, kMax);
  if (value) out = static_cast<Int>(*value);
  return value.has_value();
}

}  // namespace urlf::report

#endif  // URLF_REPORT_JSON_H
