#include "filters/netsweeper.h"

#include <cctype>

#include "filters/fixed_endpoint.h"
#include "http/html.h"
#include "util/base64.h"
#include "util/strings.h"

namespace urlf::filters {

namespace {
constexpr std::string_view kDenyPageTestsHost = "denypagetests.netsweeper.com";
}

NetsweeperDeployment::NetsweeperDeployment(std::string deploymentName,
                                           Vendor& vendor, FilterPolicy policy)
    : Deployment(std::move(deploymentName), vendor, std::move(policy)) {}

std::optional<CategoryId> NetsweeperDeployment::parseCategoryProbePath(
    std::string_view path) {
  constexpr std::string_view kPrefix = "/category/catno/";
  if (!util::startsWith(path, kPrefix)) return std::nullopt;
  const std::string_view digits = path.substr(kPrefix.size());
  if (digits.empty() || digits.size() > 4) return std::nullopt;
  CategoryId id = 0;
  for (const char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    id = id * 10 + (c - '0');
  }
  return id;
}

http::Response NetsweeperDeployment::makeDenyPage(
    const std::optional<std::string>& blockedUrl,
    const std::set<CategoryId>& categories) const {
  std::string categoryNames;
  for (const auto id : categories) {
    if (!categoryNames.empty()) categoryNames += ", ";
    categoryNames += vendor().scheme().nameOf(id) + " (" + std::to_string(id) +
                     ")";
  }

  const bool branded = !policy().stripBranding;
  const std::string title =
      branded ? "Netsweeper WebAdmin - Web Page Blocked" : "Web Page Blocked";
  std::string body =
      "<h1>Web Page Blocked</h1><p>The web page you have requested has been "
      "blocked";
  body += branded ? " by Netsweeper content filtering.</p>"
                  : " by your network administrator.</p>";
  if (blockedUrl) body += "<p>URL: <tt>" + http::escape(*blockedUrl) + "</tt></p>";
  if (branded && !categoryNames.empty())
    body += "<p>Categories: " + http::escape(categoryNames) + "</p>";

  auto resp = http::Response::make(http::Status::kForbidden,
                                   http::makePage(title, body));
  if (branded) resp.headers.add("X-Filter", "Netsweeper");
  return resp;
}

std::optional<simnet::Preempt> NetsweeperDeployment::preIntercept(
    const http::Request& request, const simnet::InterceptContext& /*ctx*/) {
  // Operator configuration-test tool (§4.4): requesting
  // denypagetests.netsweeper.com/category/catno/<N> yields the deny page
  // exactly when category N is blocked here; otherwise the request passes
  // through to the vendor's origin ("not being filtered").
  if (!util::iequals(request.url.host(), kDenyPageTestsHost)) return std::nullopt;
  const auto category = parseCategoryProbePath(request.url.path());
  if (!category || !policy().blockedCategories.contains(*category))
    return std::nullopt;
  // The vendor's test tool only covers vendor-maintained categories;
  // operator-defined custom categories (catno 66) have no test URL.
  if (const auto cat = vendor().scheme().byId(*category);
      cat && util::iequals(cat->name, "Custom"))
    return std::nullopt;
  return buildBlockAction(request, {*category}, {});
}

simnet::Preempt NetsweeperDeployment::buildBlockAction(
    const http::Request& request, const std::set<CategoryId>& blockedCategories,
    const simnet::InterceptContext& /*ctx*/) {
  // Redirect to the deny page on the box's WebAdmin service (Table 2:
  // "webadmin/deny").
  std::string location = "http://" + serviceIp().toString() +
                         ":8080/webadmin/deny.php?dpid=2";
  if (!blockedCategories.empty())
    location += "&catno=" + std::to_string(*blockedCategories.begin());
  location += "&dpruri=" + util::base64Encode(request.url.toString());

  auto resp = http::Response::make(http::Status::kFound);
  resp.headers.add("Location", location);
  return simnet::Preempt::respond(std::move(resp));
}

void NetsweeperDeployment::installExternalSurfaces(simnet::World& world,
                                                   std::uint32_t asn) {
  Deployment::installExternalSurfaces(world, asn);
  const bool visible = policy().externallyVisible;

  // WebAdmin console + deny-page service on port 8080.
  auto& webadmin = world.makeEndpoint<FixedEndpoint>(
      "Netsweeper WebAdmin for " + name(),
      [this](const http::Request& req, util::SimTime) -> http::Response {
        const std::string& path = req.url.path();
        if (path == "/" || path.empty()) {
          auto resp = http::Response::make(http::Status::kFound);
          resp.headers.add("Location", "/webadmin/");
          resp.headers.add("Server", "Netsweeper/5.0");
          return resp;
        }
        if (util::startsWith(path, "/webadmin/deny")) {
          std::optional<std::string> blockedUrl;
          if (const auto encoded = net::queryParam(req.url.query(), "dpruri"))
            blockedUrl = util::base64Decode(*encoded);
          std::set<CategoryId> categories;
          if (const auto catText = net::queryParam(req.url.query(), "catno")) {
            if (const auto cat = parseCategoryProbePath("/category/catno/" +
                                                        *catText))
              categories.insert(*cat);
          }
          auto resp = makeDenyPage(blockedUrl, categories);
          resp.headers.add("Server", "Netsweeper/5.0");
          return resp;
        }
        if (util::startsWith(path, "/webadmin")) {
          auto resp = http::Response::make(
              http::Status::kOk,
              http::makePage("Netsweeper WebAdmin - Login",
                             "<h1>netsweeper webadmin</h1>"
                             "<form method=\"post\" action=\"/webadmin/login\">"
                             "<input name=\"user\"/><input name=\"pass\" "
                             "type=\"password\"/></form>"));
          resp.headers.add("Server", "Netsweeper/5.0");
          return resp;
        }
        auto resp = http::Response::make(http::Status::kNotFound,
                                         http::makePage("404", "Not found"));
        resp.headers.add("Server", "Netsweeper/5.0");
        return resp;
      });
  world.bind(serviceIp(), 8080, webadmin, visible);
}

}  // namespace urlf::filters
