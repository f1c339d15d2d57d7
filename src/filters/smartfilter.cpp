#include "filters/smartfilter.h"

#include "filters/fixed_endpoint.h"
#include "http/html.h"
#include "util/strings.h"

namespace urlf::filters {

namespace {
constexpr std::string_view kProductBanner = "McAfee Web Gateway 7.2.0.9";
}

SmartFilterDeployment::SmartFilterDeployment(std::string deploymentName,
                                             Vendor& vendor, FilterPolicy policy)
    : Deployment(std::move(deploymentName), vendor, std::move(policy)) {
  gatewayHost_ = "mwg." + util::toLower(util::replaceAll(name(), " ", "-")) +
                 ".local";
}

http::Response SmartFilterDeployment::makeBlockPage(
    const net::Url& url, const std::set<CategoryId>& categories) const {
  std::string categoryNames;
  for (const auto id : categories) {
    if (!categoryNames.empty()) categoryNames += ", ";
    categoryNames += vendor().scheme().nameOf(id);
  }

  const bool branded = !policy().stripBranding;
  const std::string title =
      branded ? "McAfee Web Gateway - Notification" : "Access Denied";
  std::string body = "<h1>URL Blocked</h1><p>The requested URL <tt>" +
                     http::escape(url.toString()) +
                     "</tt> was blocked by the network content policy.</p>";
  if (branded) {
    body += "<p>Categories: " + http::escape(categoryNames) + "</p>";
    body += "<hr/><address>" + std::string(kProductBanner) + " at " +
            gatewayHost_ + "</address>";
  }

  auto resp = http::Response::make(http::Status::kForbidden,
                                   http::makePage(title, body));
  if (branded) {
    resp.headers.add("Via",
                     "1.1 " + gatewayHost_ + " (" + std::string(kProductBanner) +
                         ")");
  } else {
    resp.headers.add("Via", "1.1 " + gatewayHost_);
  }
  return resp;
}

simnet::Preempt SmartFilterDeployment::buildBlockAction(
    const http::Request& request, const std::set<CategoryId>& blockedCategories,
    const simnet::InterceptContext& /*ctx*/) {
  return simnet::Preempt::respond(
      makeBlockPage(request.url, blockedCategories));
}

void SmartFilterDeployment::installExternalSurfaces(simnet::World& world,
                                                    std::uint32_t asn) {
  Deployment::installExternalSurfaces(world, asn);
  const bool visible = policy().externallyVisible;

  // MWG administrative UI (port 4711).
  auto& console = world.makeEndpoint<FixedEndpoint>(
      "McAfee Web Gateway console for " + name(),
      [this](const http::Request&, util::SimTime) {
        auto resp = http::Response::make(
            http::Status::kOk,
            http::makePage("McAfee Web Gateway - Login",
                           "<h1>McAfee Web Gateway</h1>"
                           "<form method=\"post\" action=\"/login\">"
                           "<input name=\"user\"/><input name=\"pass\" "
                           "type=\"password\"/></form>"));
        resp.headers.add("Server", std::string(kProductBanner));
        return resp;
      });
  world.bind(serviceIp(), 4711, console, visible);

  // Notification service (port 80): serves the standard "URL Blocked"
  // notification template — the surface Shodan's "url blocked" keyword hits.
  auto& notification = world.makeEndpoint<FixedEndpoint>(
      "McAfee Web Gateway notification service for " + name(),
      [this](const http::Request& req, util::SimTime) {
        return makeBlockPage(req.url, {});
      });
  world.bind(serviceIp(), 80, notification, visible);
}

}  // namespace urlf::filters
