#include "fingerprint/matcher.h"

#include "net/url.h"
#include "util/strings.h"

namespace urlf::fingerprint {

void PreparedObservation::assign(const Observation& observation) {
  obs = &observation;
  util::toLowerInto(observation.body, loweredBody);
  util::toLowerInto(observation.title, loweredTitle);
  if (const auto value = observation.headers.get("Location")) {
    hasLocation = true;
    location.assign(*value);
    util::toLowerInto(location, loweredLocation);
  } else {
    hasLocation = false;
    location.clear();
    loweredLocation.clear();
  }
}

Matcher Matcher::headerContains(std::string name, std::string needle) {
  Matcher m;
  m.kind_ = Kind::kHeaderContains;
  m.headerName_ = std::move(name);
  m.needle_ = std::move(needle);
  m.loweredNeedle_ = util::toLower(m.needle_);
  return m;
}

Matcher Matcher::titleContains(std::string needle) {
  Matcher m;
  m.kind_ = Kind::kTitleContains;
  m.needle_ = std::move(needle);
  m.loweredNeedle_ = util::toLower(m.needle_);
  return m;
}

Matcher Matcher::bodyContains(std::string needle) {
  Matcher m;
  m.kind_ = Kind::kBodyContains;
  m.needle_ = std::move(needle);
  m.loweredNeedle_ = util::toLower(m.needle_);
  return m;
}

Matcher Matcher::locationContains(std::string needle) {
  Matcher m;
  m.kind_ = Kind::kLocationContains;
  m.needle_ = std::move(needle);
  m.loweredNeedle_ = util::toLower(m.needle_);
  return m;
}

Matcher Matcher::locationRedirect(std::uint16_t port, std::string queryKey) {
  Matcher m;
  m.kind_ = Kind::kLocationRedirect;
  m.port_ = port;
  m.needle_ = std::move(queryKey);
  return m;
}

Matcher Matcher::statusEquals(int code) {
  Matcher m;
  m.kind_ = Kind::kStatusEquals;
  m.status_ = code;
  return m;
}

Matcher Matcher::headerRegex(std::string name, const std::string& pattern) {
  Matcher m;
  m.kind_ = Kind::kHeaderRegex;
  m.headerName_ = std::move(name);
  m.needle_ = pattern;
  m.regex_ = std::make_shared<const util::IcaseRegex>(pattern);
  return m;
}

Matcher Matcher::bodyRegex(const std::string& pattern) {
  Matcher m;
  m.kind_ = Kind::kBodyRegex;
  m.needle_ = pattern;
  m.regex_ = std::make_shared<const util::IcaseRegex>(pattern);
  return m;
}

std::optional<std::string> Matcher::match(const Observation& obs) const {
  return match(PreparedObservation(obs));
}

std::optional<std::string> Matcher::match(
    const PreparedObservation& view) const {
  const Observation& obs = *view.obs;
  switch (kind_) {
    case Kind::kHeaderContains: {
      for (const auto value : obs.headers.getAll(headerName_)) {
        if (util::icontains(value, needle_))
          return headerName_ + ": " + std::string(value);
      }
      return std::nullopt;
    }
    case Kind::kTitleContains:
      if (view.loweredTitle.find(loweredNeedle_) != std::string::npos)
        return "title: " + obs.title;
      return std::nullopt;
    case Kind::kBodyContains:
      if (view.loweredBody.find(loweredNeedle_) != std::string::npos)
        return "body contains " + needle_;
      return std::nullopt;
    case Kind::kLocationContains: {
      if (view.hasLocation &&
          view.loweredLocation.find(loweredNeedle_) != std::string::npos)
        return "Location: " + view.location;
      return std::nullopt;
    }
    case Kind::kLocationRedirect: {
      if (!view.hasLocation) return std::nullopt;
      const auto url = net::Url::parse(view.location);
      if (!url) return std::nullopt;
      if (url->effectivePort() != port_) return std::nullopt;
      if (!net::queryParam(url->query(), needle_)) return std::nullopt;
      return "Location: " + view.location;
    }
    case Kind::kStatusEquals:
      if (obs.statusCode == status_)
        return "status " + std::to_string(status_);
      return std::nullopt;
    case Kind::kHeaderRegex: {
      for (const auto value : obs.headers.getAll(headerName_)) {
        if (regex_->search(value))
          return headerName_ + ": " + std::string(value);
      }
      return std::nullopt;
    }
    case Kind::kBodyRegex: {
      if (const auto match = regex_->search(obs.body, view.loweredBody))
        return "body matches: " +
               obs.body.substr(match->position, match->length);
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::string Matcher::describe() const {
  switch (kind_) {
    case Kind::kHeaderContains:
      return "header " + headerName_ + " contains \"" + needle_ + "\"";
    case Kind::kTitleContains:
      return "title contains \"" + needle_ + "\"";
    case Kind::kBodyContains:
      return "body contains \"" + needle_ + "\"";
    case Kind::kLocationContains:
      return "Location contains \"" + needle_ + "\"";
    case Kind::kLocationRedirect:
      return "Location redirects to port " + std::to_string(port_) +
             " with parameter \"" + needle_ + "\"";
    case Kind::kStatusEquals:
      return "status equals " + std::to_string(status_);
    case Kind::kHeaderRegex:
      return "header " + headerName_ + " matches /" + needle_ + "/i";
    case Kind::kBodyRegex:
      return "body matches /" + needle_ + "/i";
  }
  return "unknown";
}

}  // namespace urlf::fingerprint
