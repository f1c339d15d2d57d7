#include "filters/websense.h"

#include <cmath>
#include <numbers>

#include "filters/fixed_endpoint.h"
#include "http/html.h"
#include "util/strings.h"

namespace urlf::filters {

WebsenseDeployment::WebsenseDeployment(std::string deploymentName,
                                       Vendor& vendor, FilterPolicy policy)
    : Deployment(std::move(deploymentName), vendor, std::move(policy)) {}

int WebsenseDeployment::activeUsers(util::SimTime now, util::Rng& rng) const {
  if (!licenseModel_) return 0;
  const auto& m = *licenseModel_;
  const double hourOfDay = static_cast<double>(now.hours() % 24);
  // Diurnal curve peaking mid-afternoon (hour 15).
  const double phase =
      std::sin((hourOfDay - 9.0) / 24.0 * 2.0 * std::numbers::pi);
  const double diurnal = m.baseUsers + m.peakExtraUsers * std::max(0.0, phase);
  const auto jitter = static_cast<double>(rng.uniform(0, 2 * m.jitter)) -
                      static_cast<double>(m.jitter);
  return std::max(0, static_cast<int>(diurnal + jitter));
}

bool WebsenseDeployment::isOffline(const simnet::InterceptContext& ctx) const {
  if (licenseModel_ && ctx.rng != nullptr)
    return activeUsers(ctx.now, *ctx.rng) > licenseModel_->licenses;
  return Deployment::isOffline(ctx);
}

http::Response WebsenseDeployment::makeBlockPage(
    const std::optional<std::string>& blockedUrl) const {
  const bool branded = !policy().stripBranding;
  const std::string title = branded
                                ? "Websense - Access to this site is blocked"
                                : "Access to this site is blocked";
  std::string body =
      "<h1>Content blocked</h1><p>Access to this web site is restricted at "
      "this time.</p>";
  if (blockedUrl) body += "<p>URL: <tt>" + http::escape(*blockedUrl) + "</tt></p>";
  if (branded)
    body +=
        "<hr/><p>This page was served by blockpage.cgi on your organization's "
        "Websense gateway.</p>";
  auto resp =
      http::Response::make(http::Status::kForbidden, http::makePage(title, body));
  if (branded) resp.headers.add("Server", "Websense Content Gateway");
  return resp;
}

simnet::Preempt WebsenseDeployment::buildBlockAction(
    const http::Request& request,
    const std::set<CategoryId>& /*blockedCategories*/,
    const simnet::InterceptContext& /*ctx*/) {
  // Table 2 / WhatWeb: "Location header redirects to a host on port 15871
  // with parameter ws-session".
  auto resp = http::Response::make(http::Status::kFound);
  resp.headers.add("Location", "http://" + serviceIp().toString() +
                                   ":15871/cgi-bin/blockpage.cgi?ws-session=" +
                                   std::to_string(++sessionCounter_) +
                                   "&url=" + request.url.host());
  return simnet::Preempt::respond(std::move(resp));
}

void WebsenseDeployment::installExternalSurfaces(simnet::World& world,
                                                 std::uint32_t asn) {
  Deployment::installExternalSurfaces(world, asn);
  const bool visible = policy().externallyVisible;

  // Block-page service on the signature port 15871.
  auto& blockService = world.makeEndpoint<FixedEndpoint>(
      "Websense block-page service for " + name(),
      [this](const http::Request& req, util::SimTime) {
        std::optional<std::string> blockedUrl;
        if (const auto url = net::queryParam(req.url.query(), "url"))
          blockedUrl = *url;
        return makeBlockPage(blockedUrl);
      });
  world.bind(serviceIp(), 15871, blockService, visible);

  // Content Gateway console on port 80.
  auto& console = world.makeEndpoint<FixedEndpoint>(
      "Websense Content Gateway console for " + name(),
      [](const http::Request&, util::SimTime) {
        auto resp = http::Response::make(
            http::Status::kOk,
            http::makePage("Websense Content Gateway",
                           "<h1>Web Security Gateway Websense</h1>"
                           "<p>Administrator sign-in required.</p>"));
        resp.headers.add("Server", "Websense Content Gateway");
        return resp;
      });
  world.bind(serviceIp(), 80, console, visible);
}

}  // namespace urlf::filters
