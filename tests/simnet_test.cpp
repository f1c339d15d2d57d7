#include <gtest/gtest.h>

#include <set>

#include "simnet/echo_server.h"
#include "simnet/hosting.h"
#include "simnet/origin_server.h"
#include "simnet/transport.h"
#include "simnet/world.h"

namespace urlf::simnet {
namespace {

net::IpPrefix prefix(const char* text) {
  return net::IpPrefix::parse(text).value();
}

/// A middlebox scripted for tests: blocks one hostname, resets another,
/// drops a third, annotates everything else.
class ScriptedBox : public Middlebox {
 public:
  std::string name() const override { return "scripted"; }

  std::optional<Preempt> onRequest(PathContext& ctx) override {
    ++seen;
    const auto& host = ctx.request().url.host();
    if (host == "blocked.example")
      return Preempt::respond(
          http::Response::make(http::Status::kForbidden, "<h1>denied</h1>"));
    if (host == "reset.example") return Preempt::reset(FailureCause::kMiddlebox);
    if (host == "dropped.example") return Preempt::drop(FailureCause::kMiddlebox);
    ctx.annotate().headers.add("X-Annotated", "yes");
    return std::nullopt;
  }

  void onResponse(PathContext&, http::Response& response) override {
    response.headers.add("Via", "1.1 scripted");
  }

  int seen = 0;
};

/// Redirects "/" to http://site.example/ (absolute Location).
struct FixedRedirector : HttpEndpoint {
  http::Response handle(const http::Request&, util::SimTime) override {
    auto resp = http::Response::make(http::Status::kFound);
    resp.headers.add("Location", "http://site.example/");
    return resp;
  }
  std::string describe() const override { return "redirector"; }
};

/// Redirects every request back to itself (a redirect loop).
struct LoopRedirector : HttpEndpoint {
  http::Response handle(const http::Request&, util::SimTime) override {
    auto resp = http::Response::make(http::Status::kFound);
    resp.headers.add("Location", "http://loop.example/");
    return resp;
  }
  std::string describe() const override { return "loop"; }
};

/// Redirects "/" to the relative path "/landing?x=1".
struct RelativeRedirector : HttpEndpoint {
  http::Response handle(const http::Request& request, util::SimTime) override {
    if (request.url.path() == "/landing")
      return http::Response::make(http::Status::kOk, "landed");
    auto resp = http::Response::make(http::Status::kFound);
    resp.headers.add("Location", "/landing?x=1");
    return resp;
  }
  std::string describe() const override { return "relative"; }
};

/// Redirects every request to http://relative.example/ (another host).
struct CrossHostRedirector : HttpEndpoint {
  http::Response handle(const http::Request&, util::SimTime) override {
    auto resp = http::Response::make(http::Status::kFound);
    resp.headers.add("Location", "http://relative.example/");
    return resp;
  }
  std::string describe() const override { return "cross-host"; }
};

class SimnetFixture : public ::testing::Test {
 protected:
  SimnetFixture() : world(1234) {
    world.createAs(100, "ISP-AS", "Test ISP", "SA", {prefix("10.0.0.0/16")});
    world.createAs(200, "WEB-AS", "Web hosting", "US", {prefix("20.0.0.0/16")});
    isp = &world.createIsp("Test ISP", "SA", {100});
    field = &world.createVantage("field", "SA", isp);
    lab = &world.createVantage("lab", "CA", nullptr);

    auto& server = world.makeEndpoint<OriginServer>("site.example");
    Page page;
    page.title = "Site";
    page.body = "<p>hello</p>";
    server.setPage("/", page);
    serverIp = world.allocateAddress(200);
    world.bind(serverIp, 80, server, true);
    world.registerHostname("site.example", serverIp);
    origin = &server;
  }

  World world;
  Isp* isp = nullptr;
  VantagePoint* field = nullptr;
  VantagePoint* lab = nullptr;
  OriginServer* origin = nullptr;
  net::Ipv4Addr serverIp;
};

// -------------------------------------------------------------- World ----

TEST_F(SimnetFixture, DuplicateAsnRejected) {
  EXPECT_THROW(world.createAs(100, "X", "X", "US", {}), std::invalid_argument);
}

TEST_F(SimnetFixture, IspRequiresKnownAsn) {
  EXPECT_THROW(world.createIsp("Bad", "US", {999}), std::invalid_argument);
}

TEST_F(SimnetFixture, FindIspByNameCaseInsensitive) {
  EXPECT_EQ(world.findIsp("test isp"), isp);
  EXPECT_EQ(world.findIsp("absent"), nullptr);
}

TEST_F(SimnetFixture, AddressAllocationSkipsNetworkAddress) {
  // First allocation in the fixture went to the origin server.
  EXPECT_EQ(serverIp.toString(), "20.0.0.1");
  EXPECT_EQ(world.allocateAddress(200).toString(), "20.0.0.2");
}

TEST_F(SimnetFixture, AllocationFromUnknownAsnThrows) {
  EXPECT_THROW(world.allocateAddress(12345), std::invalid_argument);
}

TEST_F(SimnetFixture, AllocationExhaustsSmallPrefix) {
  world.createAs(300, "TINY", "Tiny", "US", {prefix("30.0.0.0/30")});
  EXPECT_NO_THROW(world.allocateAddress(300));  // .1
  EXPECT_NO_THROW(world.allocateAddress(300));  // .2
  EXPECT_NO_THROW(world.allocateAddress(300));  // .3
  EXPECT_THROW(world.allocateAddress(300), std::runtime_error);
}

TEST_F(SimnetFixture, DnsResolveAndIpLiterals) {
  EXPECT_EQ(world.resolve("site.example"), serverIp);
  EXPECT_EQ(world.resolve("SITE.EXAMPLE"), serverIp);
  EXPECT_FALSE(world.resolve("nx.example"));
  EXPECT_EQ(world.resolve("1.2.3.4"), net::Ipv4Addr(1, 2, 3, 4));
}

TEST_F(SimnetFixture, UnregisterHostname) {
  world.unregisterHostname("site.example");
  EXPECT_FALSE(world.resolve("site.example"));
}

TEST_F(SimnetFixture, DoubleBindRejected) {
  auto& extra = world.makeEndpoint<OriginServer>("x.example");
  EXPECT_THROW(world.bind(serverIp, 80, extra, true), std::invalid_argument);
  EXPECT_NO_THROW(world.bind(serverIp, 81, extra, true));
}

TEST_F(SimnetFixture, UnbindAllowsRebindAndHidesSurface) {
  world.unbind(serverIp, 80);
  EXPECT_EQ(world.endpointAt(serverIp, 80), nullptr);
  auto& extra = world.makeEndpoint<OriginServer>("y.example");
  EXPECT_NO_THROW(world.bind(serverIp, 80, extra, false));
  EXPECT_EQ(world.endpointAt(serverIp, 80), &extra);
  EXPECT_EQ(world.externalEndpointAt(serverIp, 80), nullptr);  // hidden
}

TEST_F(SimnetFixture, ExternalSurfacesListsOnlyVisible) {
  auto& hidden = world.makeEndpoint<OriginServer>("h.example");
  const auto hiddenIp = world.allocateAddress(200);
  world.bind(hiddenIp, 80, hidden, false);
  const auto surfaces = world.externalSurfaces();
  ASSERT_EQ(surfaces.size(), 1u);
  EXPECT_EQ(surfaces[0].ip, serverIp);
}

TEST_F(SimnetFixture, VantageLookup) {
  EXPECT_EQ(world.findVantage("field"), field);
  EXPECT_EQ(world.findVantage("FIELD"), field);
  EXPECT_EQ(world.findVantage("nope"), nullptr);
  EXPECT_TRUE(lab->isLab());
  EXPECT_FALSE(field->isLab());
}

TEST_F(SimnetFixture, DerivedGeoAndWhoisDatabases) {
  const auto geo = world.buildGeoDatabase();
  EXPECT_EQ(geo.lookup(serverIp).value(), "US");
  EXPECT_EQ(geo.lookup(net::Ipv4Addr(10, 0, 0, 5)).value(), "SA");

  const auto whois = world.buildAsnDatabase();
  const auto record = whois.lookup(serverIp);
  ASSERT_TRUE(record);
  EXPECT_EQ(record->asn, 200u);
  EXPECT_EQ(record->description, "Web hosting");
}

// ---------------------------------------------------------- Transport ----

TEST_F(SimnetFixture, LabFetchReachesOrigin) {
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://site.example/");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 200);
  EXPECT_NE(result.response->body.find("hello"), std::string::npos);
}

TEST_F(SimnetFixture, DnsFailure) {
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://nx.example/");
  EXPECT_EQ(result.outcome, FetchOutcome::kDnsFailure);
  EXPECT_FALSE(result.ok());
}

TEST_F(SimnetFixture, ConnectFailureOnUnboundPort) {
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://site.example:8080/");
  EXPECT_EQ(result.outcome, FetchOutcome::kConnectFailure);
}

TEST_F(SimnetFixture, MalformedUrlReportsError) {
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "not-a-url");
  EXPECT_EQ(result.outcome, FetchOutcome::kBadUrl);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("malformed"), std::string::npos);
  // A parse error is client-side: no fault roll, no retry, no clock motion.
  EXPECT_EQ(result.injectedFault, FaultKind::kNone);
  EXPECT_EQ(result.attempts, 1);
}

TEST_F(SimnetFixture, MiddleboxBlocksFieldButNotLab) {
  auto& box = world.makeMiddlebox<ScriptedBox>();
  isp->attachMiddlebox(box);
  world.registerHostname("blocked.example", serverIp);  // same endpoint

  Transport transport(world);
  const auto fieldResult = transport.fetchUrl(*field, "http://blocked.example/");
  ASSERT_TRUE(fieldResult.ok());
  EXPECT_EQ(fieldResult.response->statusCode, 403);

  const auto labResult = transport.fetchUrl(*lab, "http://blocked.example/");
  ASSERT_TRUE(labResult.ok());
  EXPECT_EQ(labResult.response->statusCode, 200);
}

TEST_F(SimnetFixture, MiddleboxResetAndDrop) {
  auto& box = world.makeMiddlebox<ScriptedBox>();
  isp->attachMiddlebox(box);
  world.registerHostname("reset.example", serverIp);
  world.registerHostname("dropped.example", serverIp);

  Transport transport(world);
  EXPECT_EQ(transport.fetchUrl(*field, "http://reset.example/").outcome,
            FetchOutcome::kReset);
  EXPECT_EQ(transport.fetchUrl(*field, "http://dropped.example/").outcome,
            FetchOutcome::kTimeout);
}

TEST_F(SimnetFixture, MiddleboxAnnotatesAndPostProcesses) {
  auto& box = world.makeMiddlebox<ScriptedBox>();
  isp->attachMiddlebox(box);

  Transport transport(world);
  const auto result = transport.fetchUrl(*field, "http://site.example/");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->headers.get("Via").value(), "1.1 scripted");
  EXPECT_EQ(box.seen, 1);

  // The lab is never intercepted.
  const auto labResult = transport.fetchUrl(*lab, "http://site.example/");
  EXPECT_FALSE(labResult.response->headers.contains("Via"));
  EXPECT_EQ(box.seen, 1);

  // The annotation reaches the origin, but only on the attempt that made
  // it: one request shared by both vantages and a repeat stays as built.
  auto& echo = world.makeEndpoint<RequestEchoServer>("echo.example");
  const auto echoIp = world.allocateAddress(200);
  world.bind(echoIp, 80, echo, true);
  world.registerHostname("echo.example", echoIp);
  const auto request = http::Request::get("http://echo.example/");
  const auto annotations = [&](const VantagePoint& vantage) {
    const auto result = transport.fetch(vantage, request);
    EXPECT_TRUE(result.ok());
    std::size_t count = 0;
    for (std::size_t at = result.response->body.find("X-Annotated: yes");
         at != std::string::npos;
         at = result.response->body.find("X-Annotated: yes", at + 1))
      ++count;
    return count;
  };
  EXPECT_EQ(annotations(*field), 1u);
  EXPECT_EQ(annotations(*field), 1u);
  EXPECT_EQ(annotations(*lab), 0u);
  EXPECT_FALSE(request.headers.contains("X-Annotated"));
}

TEST_F(SimnetFixture, ChainShortCircuitsAtFirstBlock) {
  auto& first = world.makeMiddlebox<ScriptedBox>();
  auto& second = world.makeMiddlebox<ScriptedBox>();
  isp->attachMiddlebox(first);
  isp->attachMiddlebox(second);
  world.registerHostname("blocked.example", serverIp);

  Transport transport(world);
  (void)transport.fetchUrl(*field, "http://blocked.example/");
  EXPECT_EQ(first.seen, 1);
  EXPECT_EQ(second.seen, 0);
}

TEST_F(SimnetFixture, RedirectFollowing) {
  auto& redirector = world.makeEndpoint<FixedRedirector>();
  const auto redirectorIp = world.allocateAddress(200);
  world.bind(redirectorIp, 80, redirector, true);
  world.registerHostname("redirect.example", redirectorIp);

  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://redirect.example/");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 200);
  ASSERT_EQ(result.redirectChain.size(), 1u);
  EXPECT_EQ(result.redirectChain[0].statusCode, 302);
}

TEST_F(SimnetFixture, RedirectNotFollowedWhenDisabled) {
  auto& redirector = world.makeEndpoint<FixedRedirector>();
  const auto redirectorIp = world.allocateAddress(200);
  world.bind(redirectorIp, 80, redirector, true);
  world.registerHostname("redirect.example", redirectorIp);

  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://redirect.example/",
                                         {.followRedirects = false});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 302);
  EXPECT_TRUE(result.redirectChain.empty());
}

TEST_F(SimnetFixture, RedirectLoopBoundedByMaxRedirects) {
  auto& looper = world.makeEndpoint<LoopRedirector>();
  const auto loopIp = world.allocateAddress(200);
  world.bind(loopIp, 80, looper, true);
  world.registerHostname("loop.example", loopIp);

  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://loop.example/",
                                         {.followRedirects = true,
                                          .maxRedirects = 3});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 302);  // still redirecting when capped
  EXPECT_EQ(result.redirectChain.size(), 3u);
}

TEST_F(SimnetFixture, RelativeRedirectResolvesAgainstHost) {
  auto& relative = world.makeEndpoint<RelativeRedirector>();
  const auto ip = world.allocateAddress(200);
  world.bind(ip, 80, relative, true);
  world.registerHostname("relative.example", ip);

  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://relative.example/");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 200);
  EXPECT_NE(result.response->body.find("landed"), std::string::npos);
}

TEST_F(SimnetFixture, RelativeRedirectAfterCrossHostHopStaysOnThatHop) {
  auto& first = world.makeEndpoint<CrossHostRedirector>();
  auto& second = world.makeEndpoint<RelativeRedirector>();
  const auto firstIp = world.allocateAddress(200);
  const auto secondIp = world.allocateAddress(200);
  world.bind(firstIp, 80, first, true);
  world.bind(secondIp, 80, second, true);
  world.registerHostname("hop.example", firstIp);
  world.registerHostname("relative.example", secondIp);

  // hop.example -> relative.example/ -> "/landing?x=1" on relative.example.
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://hop.example/");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 200);
  EXPECT_NE(result.response->body.find("landed"), std::string::npos);
  EXPECT_EQ(result.redirectChain.size(), 2u);
}

// -------------------------------------------------------- OriginServer ----

TEST_F(SimnetFixture, UnknownPathIs404) {
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://site.example/missing");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 404);
}

TEST_F(SimnetFixture, CatchAllServesEveryPath) {
  origin->setCatchAll({.title = "any", .body = "anything"});
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://site.example/whatever");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 200);
}

TEST_F(SimnetFixture, ServerHeaderPresent) {
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://site.example/");
  EXPECT_TRUE(result.response->headers.contains("Server"));
}

TEST_F(SimnetFixture, NonHtmlContentServedVerbatim) {
  Page image;
  image.contentType = "image/jpeg";
  image.body = "jpegbytes";
  origin->setPage("/pic.jpg", image);
  Transport transport(world);
  const auto result = transport.fetchUrl(*lab, "http://site.example/pic.jpg");
  EXPECT_EQ(result.response->body, "jpegbytes");
  EXPECT_EQ(result.response->headers.get("Content-Type").value(), "image/jpeg");
}

// ------------------------------------------------------------ Hosting ----

TEST_F(SimnetFixture, HostingCreatesResolvableDomains) {
  HostingProvider hosting(world, 200);
  const auto domain = hosting.createFreshDomain(ContentProfile::kGlypeProxy);
  EXPECT_TRUE(world.resolve(domain.hostname));
  EXPECT_TRUE(net::isValidHostname(domain.hostname));
  EXPECT_TRUE(domain.hostname.ends_with(".info"));

  Transport transport(world);
  const auto result =
      transport.fetchUrl(*lab, "http://" + domain.hostname + "/");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.response->body.find("Glype"), std::string::npos);
}

TEST_F(SimnetFixture, HostingNamesAreUnique) {
  HostingProvider hosting(world, 200);
  std::set<std::string> names;
  for (int i = 0; i < 60; ++i) names.insert(hosting.freshDomainName());
  EXPECT_EQ(names.size(), 60u);
}

TEST_F(SimnetFixture, AdultProfileHasBenignFile) {
  HostingProvider hosting(world, 200);
  const auto domain = hosting.createFreshDomain(ContentProfile::kAdultImage);
  Transport transport(world);
  const auto benign =
      transport.fetchUrl(*lab, "http://" + domain.hostname + "/benign.jpg");
  ASSERT_TRUE(benign.ok());
  EXPECT_EQ(benign.response->statusCode, 200);
  const auto index =
      transport.fetchUrl(*lab, "http://" + domain.hostname + "/");
  EXPECT_NE(index.response->body.find("adult content"), std::string::npos);
}

TEST_F(SimnetFixture, SanitizeRemovesOffensiveContent) {
  HostingProvider hosting(world, 200);
  const auto domain = hosting.createFreshDomain(ContentProfile::kAdultImage);
  hosting.sanitizeDomain(domain);
  Transport transport(world);
  const auto index =
      transport.fetchUrl(*lab, "http://" + domain.hostname + "/");
  EXPECT_EQ(index.response->body.find("adult content"), std::string::npos);
}

TEST_F(SimnetFixture, TeardownRemovesDomain) {
  HostingProvider hosting(world, 200);
  const auto domain = hosting.createFreshDomain(ContentProfile::kBenign);
  hosting.teardownDomain(domain);
  EXPECT_FALSE(world.resolve(domain.hostname));
  Transport transport(world);
  EXPECT_EQ(transport.fetchUrl(*lab, "http://" + domain.hostname + "/").outcome,
            FetchOutcome::kDnsFailure);
}

TEST_F(SimnetFixture, HostingRequiresKnownAsn) {
  EXPECT_THROW(HostingProvider(world, 999), std::invalid_argument);
}

TEST(ContentProfileTest, LabelsAndNames) {
  EXPECT_EQ(toString(ContentProfile::kGlypeProxy), "glype-proxy");
  EXPECT_EQ(contentLabel(ContentProfile::kGlypeProxy), "proxy-script");
  EXPECT_EQ(contentLabel(ContentProfile::kAdultImage), "pornography");
  EXPECT_EQ(contentLabel(ContentProfile::kBenign), "benign");
}

}  // namespace
}  // namespace urlf::simnet
