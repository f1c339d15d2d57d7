#include "filters/bluecoat.h"

#include "filters/fixed_endpoint.h"
#include "http/html.h"
#include "util/base64.h"
#include "util/strings.h"

namespace urlf::filters {

BlueCoatProxySG::BlueCoatProxySG(std::string deploymentName, Vendor& vendor,
                                 FilterPolicy policy)
    : Deployment(std::move(deploymentName), vendor, std::move(policy)) {
  applianceHost_ =
      "proxysg." + util::toLower(util::replaceAll(name(), " ", "-")) + ".local";
}

std::string BlueCoatProxySG::cfauthRedirect(const net::Url& url) const {
  return "http://www.cfauth.com/?cfru=" + util::base64Encode(url.toString());
}

simnet::Preempt BlueCoatProxySG::buildBlockAction(
    const http::Request& request,
    const std::set<CategoryId>& /*blockedCategories*/,
    const simnet::InterceptContext& /*ctx*/) {
  if (policy().stripBranding) {
    return simnet::Preempt::respond(http::Response::make(
        http::Status::kForbidden,
        http::makePage("Access Denied",
                       "<h1>Access Denied</h1><p>This page cannot be "
                       "displayed.</p>")));
  }
  auto resp = http::Response::make(http::Status::kFound);
  resp.headers.add("Location", cfauthRedirect(request.url));
  resp.headers.add("Server", "Blue Coat ProxySG");
  return simnet::Preempt::respond(std::move(resp));
}

std::optional<simnet::Preempt> BlueCoatProxySG::onRequest(
    simnet::PathContext& ctx) {
  if (engine_ != nullptr) {
    // Tandem mode (Challenge 3): the engine decides; our own Web Filter DB
    // and blocked-category policy are not consulted at all.
    return engine_->onRequest(ctx);
  }
  return Deployment::onRequest(ctx);
}

void BlueCoatProxySG::onResponse(simnet::PathContext& /*ctx*/,
                                 http::Response& response) {
  // The appliance is a transparent proxy regardless of which engine filters;
  // it stamps proxy headers on forwarded traffic unless debranded.
  if (policy().stripBranding) return;
  response.headers.add("Via", "1.1 " + applianceHost_);
  response.headers.add("X-Cache", "MISS from " + applianceHost_);
}

void BlueCoatProxySG::installExternalSurfaces(simnet::World& world,
                                              std::uint32_t asn) {
  Deployment::installExternalSurfaces(world, asn);
  const bool visible = policy().externallyVisible;

  // Management console (port 8082).
  auto& console = world.makeEndpoint<FixedEndpoint>(
      "Blue Coat ProxySG console for " + name(),
      [](const http::Request&, util::SimTime) {
        auto resp = http::Response::make(
            http::Status::kOk,
            http::makePage("Blue Coat ProxySG - Management Console",
                           "<h1>ProxySG Appliance</h1>"
                           "<p>Authentication required.</p>"));
        resp.headers.add("Server", "Blue Coat ProxySG");
        return resp;
      });
  world.bind(serviceIp(), 8082, console, visible);

  // Unauthenticated requests straight at the appliance's port 80 bounce to
  // the cfauth.com authentication/notification service — the behaviour that
  // puts "cfru=" into scan banners.
  auto& bounce = world.makeEndpoint<FixedEndpoint>(
      "Blue Coat ProxySG cfauth bounce for " + name(),
      [this](const http::Request& req, util::SimTime) {
        auto resp = http::Response::make(http::Status::kFound);
        resp.headers.add("Location", cfauthRedirect(req.url));
        resp.headers.add("Server", "Blue Coat ProxySG");
        return resp;
      });
  world.bind(serviceIp(), 80, bounce, visible);
}

}  // namespace urlf::filters
