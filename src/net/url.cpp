#include "net/url.h"

#include <stdexcept>

#include "net/ipv4.h"
#include "util/strings.h"

namespace urlf::net {

namespace {

bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool isAlnum(char c) {
  return isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

std::optional<std::uint16_t> parsePort(std::string_view s) {
  if (s.empty() || s.size() > 5) return std::nullopt;
  std::uint32_t v = 0;
  for (char c : s) {
    if (!isDigit(c)) return std::nullopt;
    v = v * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (v == 0 || v > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(v);
}

void lowerInPlace(std::string& s) {
  for (char& c : s)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
}

}  // namespace

Url::Url(std::string scheme, std::string host, std::optional<std::uint16_t> port,
         std::string path, std::string query)
    : scheme_(std::move(scheme)),
      host_(std::move(host)),
      port_(port),
      path_(std::move(path)),
      query_(std::move(query)) {
  lowerInPlace(scheme_);
  lowerInPlace(host_);
  if (scheme_ != "http" && scheme_ != "https")
    throw std::invalid_argument("Url: unsupported scheme " + scheme_);
  if (host_.empty()) throw std::invalid_argument("Url: empty host");
  if (path_.empty()) path_ = "/";
  if (path_.front() != '/') path_.insert(path_.begin(), '/');
}

std::optional<Url> Url::parse(std::string_view s) {
  s = util::trim(s);
  std::string scheme;
  if (util::iequals(s.substr(0, 8), "https://")) {
    scheme = "https";
    s.remove_prefix(8);
  } else if (util::iequals(s.substr(0, 7), "http://")) {
    scheme = "http";
    s.remove_prefix(7);
  } else {
    return std::nullopt;
  }

  // authority ends at the first '/', '?' or '#'
  std::size_t authorityEnd = 0;
  while (authorityEnd < s.size() && s[authorityEnd] != '/' &&
         s[authorityEnd] != '?' && s[authorityEnd] != '#')
    ++authorityEnd;
  if (authorityEnd == s.size()) authorityEnd = std::string_view::npos;
  const std::string_view authority = s.substr(0, authorityEnd);
  if (authority.empty()) return std::nullopt;
  if (authority.find('@') != std::string_view::npos) return std::nullopt;

  std::string_view host = authority;
  std::optional<std::uint16_t> port;
  const std::size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    port = parsePort(authority.substr(colon + 1));
    if (!port) return std::nullopt;
    host = authority.substr(0, colon);
  }
  if (host.empty()) return std::nullopt;
  if (!Ipv4Addr::parse(host) && !isValidHostname(host)) return std::nullopt;

  std::string path = "/";
  std::string query;
  if (authorityEnd != std::string_view::npos) {
    std::string_view rest = s.substr(authorityEnd);
    // Drop any fragment.
    const std::size_t hash = rest.find('#');
    if (hash != std::string_view::npos) rest = rest.substr(0, hash);
    const std::size_t qmark = rest.find('?');
    if (qmark != std::string_view::npos) {
      query = std::string(rest.substr(qmark + 1));
      rest = rest.substr(0, qmark);
    }
    if (!rest.empty()) path = std::string(rest);
    if (path.empty() || path.front() != '/') path.insert(path.begin(), '/');
  }

  return Url{std::move(scheme), std::string(host), port, std::move(path),
             std::move(query)};
}

std::uint16_t Url::effectivePort() const {
  if (port_) return *port_;
  return scheme_ == "https" ? 443 : 80;
}

std::string Url::requestTarget() const {
  return query_.empty() ? path_ : path_ + "?" + query_;
}

std::string Url::toString() const {
  std::string out;
  appendTo(out);
  return out;
}

void Url::appendTo(std::string& out) const {
  out += scheme_;
  out += "://";
  out += host_;
  if (port_) {
    out += ':';
    out += std::to_string(*port_);
  }
  out += path_;
  if (!query_.empty()) {
    out += '?';
    out += query_;
  }
}

std::optional<std::string> queryParam(std::string_view query,
                                      std::string_view key) {
  for (const auto& pair : util::split(query, '&')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (pair == key) return std::string{};
      continue;
    }
    if (std::string_view(pair).substr(0, eq) == key) return pair.substr(eq + 1);
  }
  return std::nullopt;
}

bool isValidHostname(std::string_view s) {
  if (s.empty() || s.size() > 253) return false;
  if (Ipv4Addr::parse(s)) return false;  // IP literals are not hostnames
  bool lastWasDot = true;  // treat start-of-string like a label boundary
  std::size_t labelLen = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '.') {
      if (lastWasDot || labelLen == 0) return false;
      if (s[i - 1] == '-') return false;
      lastWasDot = true;
      labelLen = 0;
      continue;
    }
    if (!isAlnum(c) && c != '-') return false;
    if (lastWasDot && c == '-') return false;  // label can't start with '-'
    lastWasDot = false;
    if (++labelLen > 63) return false;
  }
  return !lastWasDot && s.back() != '-';
}

std::string topLevelDomain(std::string_view host) {
  if (Ipv4Addr::parse(host)) return {};
  const std::size_t dot = host.rfind('.');
  if (dot == std::string_view::npos) return {};
  return util::toLower(host.substr(dot + 1));
}

std::string registrableDomain(std::string_view host) {
  const std::size_t last = host.rfind('.');
  if (last == std::string_view::npos) return util::toLower(host);
  const std::size_t prev = host.rfind('.', last - 1);
  if (prev == std::string_view::npos) return util::toLower(host);
  return util::toLower(host.substr(prev + 1));
}

std::string_view registrableDomainView(std::string_view host) {
  const std::size_t last = host.rfind('.');
  if (last == std::string_view::npos) return host;
  const std::size_t prev = host.rfind('.', last - 1);
  if (prev == std::string_view::npos) return host;
  return host.substr(prev + 1);
}

}  // namespace urlf::net
