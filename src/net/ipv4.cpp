#include "net/ipv4.h"

#include <cctype>
#include <stdexcept>

namespace urlf::net {

namespace {

constexpr std::uint32_t maskForLength(int length) {
  return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
}

}  // namespace

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view s) {
  // One pass over the text: four runs of 1-3 digits joined by single dots.
  std::uint32_t value = 0;
  std::size_t i = 0;
  for (int part = 0; part < 4; ++part) {
    if (part > 0) {
      if (i == s.size() || s[i] != '.') return std::nullopt;
      ++i;
    }
    const std::size_t start = i;
    std::uint32_t octet = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9' && i - start < 3)
      octet = octet * 10 + static_cast<std::uint32_t>(s[i++] - '0');
    const std::size_t digits = i - start;
    // Reject leading zeros ("01") which some parsers read as octal.
    if (digits == 0 || octet > 255 || (digits > 1 && s[start] == '0'))
      return std::nullopt;
    value = (value << 8) | octet;
  }
  if (i != s.size()) return std::nullopt;
  return Ipv4Addr{value};
}

std::string Ipv4Addr::toString() const {
  return std::to_string((value_ >> 24) & 0xFF) + "." +
         std::to_string((value_ >> 16) & 0xFF) + "." +
         std::to_string((value_ >> 8) & 0xFF) + "." +
         std::to_string(value_ & 0xFF);
}

IpPrefix::IpPrefix(Ipv4Addr base, int length) : length_(length) {
  if (length < 0 || length > 32)
    throw std::invalid_argument("IpPrefix: bad length");
  base_ = Ipv4Addr{base.value() & maskForLength(length)};
}

std::optional<IpPrefix> IpPrefix::parse(std::string_view s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Addr::parse(s.substr(0, slash));
  if (!addr) return std::nullopt;
  const std::string_view lenStr = s.substr(slash + 1);
  if (lenStr.empty() || lenStr.size() > 2) return std::nullopt;
  int len = 0;
  for (char c : lenStr) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    len = len * 10 + (c - '0');
  }
  if (len > 32) return std::nullopt;
  return IpPrefix{*addr, len};
}

bool IpPrefix::contains(Ipv4Addr addr) const {
  return (addr.value() & maskForLength(length_)) == base_.value();
}

std::uint64_t IpPrefix::size() const {
  return std::uint64_t{1} << (32 - length_);
}

Ipv4Addr IpPrefix::addressAt(std::uint64_t i) const {
  if (i >= size()) throw std::out_of_range("IpPrefix::addressAt");
  return Ipv4Addr{base_.value() + static_cast<std::uint32_t>(i)};
}

std::string IpPrefix::toString() const {
  return base_.toString() + "/" + std::to_string(length_);
}

}  // namespace urlf::net
