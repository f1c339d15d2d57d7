#ifndef URLF_FINGERPRINT_MATCHER_H
#define URLF_FINGERPRINT_MATCHER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "http/header_map.h"
#include "net/ipv4.h"
#include "util/icase_regex.h"

namespace urlf::fingerprint {

/// What the fingerprinting engine sees for one probed (ip, port): status,
/// headers, a body snippet, and the extracted HTML title. Built either from
/// an active probe or from a stored scan banner.
struct Observation {
  net::Ipv4Addr ip;
  std::uint16_t port = 80;
  int statusCode = 0;
  http::HeaderMap headers;
  std::string body;
  std::string title;
};

/// Case-folded, parsed-once view of one Observation. The engine evaluates
/// dozens of matchers against the same observation; preparing the lowered
/// body/title and the Location header once keeps that work out of every
/// rule probe. The view borrows the observation — keep the Observation
/// alive for the view's lifetime.
struct PreparedObservation {
  /// An empty view; `assign` before use. Lets validation hot loops keep one
  /// view alive and re-point it per candidate, reusing the lowered buffers'
  /// capacity instead of reallocating them thousands of times.
  PreparedObservation() = default;
  explicit PreparedObservation(const Observation& observation) {
    assign(observation);
  }

  /// Re-point the view at `observation`, rebuilding the case-folded fields
  /// in place. Verdicts are identical to a freshly constructed view.
  void assign(const Observation& observation);

  const Observation* obs = nullptr;
  std::string loweredBody;
  std::string loweredTitle;
  bool hasLocation = false;
  std::string location;         ///< raw Location header value (first)
  std::string loweredLocation;
};

/// One WhatWeb-style match rule. Each rule keys on a protocol artifact that
/// Table 2 of the paper identifies as distinctive for a product.
class Matcher {
 public:
  /// Header `name` has a value containing `needle` (case-insensitive).
  static Matcher headerContains(std::string name, std::string needle);
  /// HTML title contains `needle` (case-insensitive).
  static Matcher titleContains(std::string needle);
  /// Body contains `needle` (case-insensitive).
  static Matcher bodyContains(std::string needle);
  /// Location header contains `needle` (case-insensitive).
  static Matcher locationContains(std::string needle);
  /// Redirect whose Location URL targets this port AND carries this query
  /// parameter (the Websense signature: port 15871 + "ws-session").
  static Matcher locationRedirect(std::uint16_t port, std::string queryKey);
  /// Exact status code.
  static Matcher statusEquals(int code);
  /// Header `name` has a value matching a case-insensitive regex —
  /// WhatWeb's native rule form, in the util::IcaseRegex subset of
  /// ECMAScript. Throws std::regex_error on a malformed pattern or one
  /// outside the subset.
  static Matcher headerRegex(std::string name, const std::string& pattern);
  /// Body matches a case-insensitive regex (util::IcaseRegex subset).
  static Matcher bodyRegex(const std::string& pattern);

  /// Evidence string when matched, nullopt otherwise.
  [[nodiscard]] std::optional<std::string> match(const Observation& obs) const;

  /// Fast path against a prepared view — identical verdicts to the
  /// Observation overload, without re-lowercasing per rule.
  [[nodiscard]] std::optional<std::string> match(
      const PreparedObservation& view) const;

  /// Human-readable rule description.
  [[nodiscard]] std::string describe() const;

 private:
  enum class Kind {
    kHeaderContains,
    kTitleContains,
    kBodyContains,
    kLocationContains,
    kLocationRedirect,
    kStatusEquals,
    kHeaderRegex,
    kBodyRegex,
  };

  Matcher() = default;

  Kind kind_ = Kind::kBodyContains;
  std::string headerName_;
  std::string needle_;  ///< substring needle, or the regex's source text
  std::string loweredNeedle_;  ///< needle_ case-folded once at construction
  std::uint16_t port_ = 0;
  int status_ = 0;
  /// Parsed regex for the regex kinds (shared so copies stay cheap).
  std::shared_ptr<const util::IcaseRegex> regex_;
};

}  // namespace urlf::fingerprint

#endif  // URLF_FINGERPRINT_MATCHER_H
