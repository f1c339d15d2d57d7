#ifndef URLF_HTTP_HEADER_MAP_H
#define URLF_HTTP_HEADER_MAP_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace urlf::http {

/// An ordered, case-insensitive HTTP header collection.
///
/// Field names compare case-insensitively (RFC 7230 §3.2); insertion order is
/// preserved because fingerprinting (Table 2 of the paper) cares about the
/// exact header lines a device emits.
class HeaderMap {
 public:
  struct Field {
    std::string name;
    std::string value;
  };

  HeaderMap() = default;
  HeaderMap(std::initializer_list<Field> fields);

  /// Append a field, keeping any existing fields with the same name.
  void add(std::string_view name, std::string_view value);

  /// Make room for `n` fields without reallocating.
  void reserve(std::size_t n) { fields_.reserve(n); }

  /// Replace all fields of this name with a single field.
  void set(std::string_view name, std::string_view value);

  /// Overwrite the first field of this name in place (keeping its position
  /// and the value string's capacity); append when absent. The reuse-friendly
  /// variant of `set` for hot loops that re-point one header per iteration.
  void replaceValue(std::string_view name, std::string_view value);

  /// Remove every field with this name. Returns the number removed.
  std::size_t remove(std::string_view name);

  /// First value for the name, if any.
  [[nodiscard]] std::optional<std::string_view> get(std::string_view name) const;

  /// All values for the name, in insertion order.
  [[nodiscard]] std::vector<std::string_view> getAll(std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view name) const;

  /// True if any field's *value* contains `needle` (case-insensitive).
  [[nodiscard]] bool anyValueContains(std::string_view needle) const;

  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }
  [[nodiscard]] bool empty() const { return fields_.empty(); }
  [[nodiscard]] std::size_t size() const { return fields_.size(); }

  /// "Name: value\r\n" for every field, in order.
  [[nodiscard]] std::string serialize() const;

  bool operator==(const HeaderMap&) const;

 private:
  std::vector<Field> fields_;
};

}  // namespace urlf::http

#endif  // URLF_HTTP_HEADER_MAP_H
