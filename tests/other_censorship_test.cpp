// The censorship mechanisms the paper's method deliberately distinguishes
// itself from (§4.1): keyword RST injection, blackholing, and DNS tampering,
// modelled by the packet-level filters. These produce
// blocked-but-unattributable measurements — demonstrating why block-page
// products are the tractable confirmation target — plus the RepeatedTester
// statistics utility.
#include <gtest/gtest.h>

#include "measure/repeated.h"
#include "simnet/hosting.h"
#include "simnet/origin_server.h"
#include "simnet/transport.h"

namespace urlf {
namespace {

net::IpPrefix prefix(const char* text) {
  return net::IpPrefix::parse(text).value();
}

class OtherCensorshipFixture : public ::testing::Test {
 protected:
  OtherCensorshipFixture() : world(777) {
    world.createAs(100, "ISP-AS", "Firewalled ISP", "CN",
                   {prefix("10.0.0.0/16")});
    world.createAs(200, "HOST-AS", "Hosting", "US", {prefix("20.0.0.0/16")});
    isp = &world.createIsp("Firewalled ISP", "CN", {100});
    field = &world.createVantage("field", "CN", isp);
    lab = &world.createVantage("lab", "CA", nullptr);
    hosting = std::make_unique<simnet::HostingProvider>(world, 200);
  }

  simnet::World world;
  simnet::Isp* isp = nullptr;
  simnet::VantagePoint* field = nullptr;
  simnet::VantagePoint* lab = nullptr;
  std::unique_ptr<simnet::HostingProvider> hosting;
};

// ------------------------------------------------------ Keyword RSTs ----

TEST_F(OtherCensorshipFixture, FirewallResetsMatchingTraffic) {
  auto& firewall = world.makePacketFilter<simnet::RstInjector>(
      "national-firewall", std::vector<std::string>{"falun", "proxy"});
  isp->attachPacketFilter(firewall);

  const auto banned = hosting->createDomain("falungongnews.org",
                                            simnet::ContentProfile::kNews);
  const auto fine =
      hosting->createDomain("cookingnews.org", simnet::ContentProfile::kNews);

  simnet::Transport transport(world);
  EXPECT_EQ(transport.fetchUrl(*field, "http://" + banned.hostname + "/")
                .outcome,
            simnet::FetchOutcome::kReset);
  EXPECT_EQ(
      transport.fetchUrl(*field, "http://" + fine.hostname + "/").outcome,
      simnet::FetchOutcome::kOk);
  EXPECT_EQ(firewall.resetsInjected(), 1u);

  // The lab is unaffected.
  EXPECT_EQ(transport.fetchUrl(*lab, "http://" + banned.hostname + "/")
                .outcome,
            simnet::FetchOutcome::kOk);
}

TEST_F(OtherCensorshipFixture, FirewallKeywordMatchesPathToo) {
  auto& firewall = world.makePacketFilter<simnet::RstInjector>(
      "fw", std::vector<std::string>{"forbidden-topic"});
  isp->attachPacketFilter(firewall);
  const auto site =
      hosting->createDomain("plainsite.org", simnet::ContentProfile::kBenign);
  simnet::Transport transport(world);
  EXPECT_EQ(transport
                .fetchUrl(*field, "http://" + site.hostname +
                                      "/forbidden-topic.html")
                .outcome,
            simnet::FetchOutcome::kReset);
  EXPECT_EQ(
      transport.fetchUrl(*field, "http://" + site.hostname + "/").outcome,
      simnet::FetchOutcome::kOk);
}

TEST_F(OtherCensorshipFixture, DropModeLooksLikeTimeout) {
  // Blackholing: a null route swallows the SYN and the client times out.
  auto& nullRoute = world.makePacketFilter<simnet::NullRouteFilter>(
      "fw", std::vector<std::string>{"myproxysite.org"});
  isp->attachPacketFilter(nullRoute);
  const auto site =
      hosting->createDomain("myproxysite.org", simnet::ContentProfile::kBenign);
  simnet::Transport transport(world);
  EXPECT_EQ(
      transport.fetchUrl(*field, "http://" + site.hostname + "/").outcome,
      simnet::FetchOutcome::kTimeout);
}

TEST_F(OtherCensorshipFixture, FirewallBlocksAreUnattributable) {
  // The measurement client records a block, but there is no block page and
  // therefore no product attribution — the ambiguity §4.1 notes.
  auto& firewall = world.makePacketFilter<simnet::RstInjector>(
      "fw", std::vector<std::string>{"glype"});
  isp->attachPacketFilter(firewall);
  const auto site = hosting->createDomain(
      "glypeproxyhub.org", simnet::ContentProfile::kGlypeProxy);

  measure::Client client(world, *field, *lab);
  const auto result = client.testUrl("http://" + site.hostname + "/");
  EXPECT_EQ(result.verdict, measure::Verdict::kBlockedOther);
  EXPECT_FALSE(result.blockPage);
}

// ------------------------------------------------------ DNS tampering ----

/// A forged-answer resolver poisoner pointing `zone` at `target`.
void poisonToward(simnet::World& world, simnet::Isp& isp,
                  const std::string& zone, net::Ipv4Addr target) {
  auto& poisoner = world.makePacketFilter<simnet::DnsPoisoner>(
      "resolver-" + zone, simnet::DnsTamper::Kind::kForged, target);
  poisoner.poisonZone(zone);
  isp.attachPacketFilter(poisoner);
}

TEST_F(OtherCensorshipFixture, ForgedDnsRedirectsFieldOnly) {
  // The censor points the hostname at a sinkhole serving a warning page.
  auto& sinkhole = world.makeEndpoint<simnet::OriginServer>("sinkhole");
  simnet::Page warning;
  warning.title = "Blocked by order of the authority";
  warning.body = "<h1>This website is not available.</h1>";
  sinkhole.setPage("/", warning);
  sinkhole.setCatchAll(warning);
  const auto sinkholeIp = world.allocateAddress(100);
  world.bind(sinkholeIp, 80, sinkhole, false);

  const auto site =
      hosting->createDomain("bannednews.org", simnet::ContentProfile::kNews);
  poisonToward(world, *isp, "bannednews.org", sinkholeIp);

  simnet::Transport transport(world);
  const auto fieldFetch =
      transport.fetchUrl(*field, "http://bannednews.org/");
  ASSERT_TRUE(fieldFetch.ok());
  EXPECT_NE(fieldFetch.response->body.find("not available"),
            std::string::npos);

  const auto labFetch = transport.fetchUrl(*lab, "http://bannednews.org/");
  ASSERT_TRUE(labFetch.ok());
  EXPECT_NE(labFetch.response->body.find("Independent News"),
            std::string::npos);
}

TEST_F(OtherCensorshipFixture, ForgedDnsYieldsInconclusiveVerdict) {
  // Same status (200) but different content, not a known block page: the
  // client cannot attribute it — kInconclusive.
  auto& sinkhole = world.makeEndpoint<simnet::OriginServer>("sinkhole");
  simnet::Page warning;
  warning.title = "Notice";
  warning.body = "<p>unavailable</p>";
  sinkhole.setPage("/", warning);
  const auto sinkholeIp = world.allocateAddress(100);
  world.bind(sinkholeIp, 80, sinkhole, false);

  const auto site =
      hosting->createDomain("bannedblog.org", simnet::ContentProfile::kNews);
  poisonToward(world, *isp, "bannedblog.org", sinkholeIp);

  measure::Client client(world, *field, *lab);
  const auto result = client.testUrl("http://bannedblog.org/");
  EXPECT_EQ(result.verdict, measure::Verdict::kInconclusive);
}

TEST_F(OtherCensorshipFixture, ForgedDnsToUnboundAddressIsInconclusive) {
  // Blackhole resolution: points at an address with nothing listening.
  const auto site =
      hosting->createDomain("nulled.org", simnet::ContentProfile::kNews);
  poisonToward(world, *isp, "nulled.org", net::Ipv4Addr(10, 0, 99, 99));

  measure::Client client(world, *field, *lab);
  const auto result = client.testUrl("http://nulled.org/");
  EXPECT_EQ(result.verdict, measure::Verdict::kInconclusive);
}

// ------------------------------------------------------ RepeatedTester ----

TEST_F(OtherCensorshipFixture, RepeatedTesterAggregatesStats) {
  const auto a = hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  const auto b = hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  measure::RepeatedTester tester(world, *field, *lab);

  const std::vector<std::string> urls{"http://" + a.hostname + "/",
                                      "http://" + b.hostname + "/"};
  const auto stats = tester.run(urls, /*passes=*/3, /*hoursBetweenPasses=*/2);
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.runs, 3);
    EXPECT_EQ(s.accessible, 3);
    EXPECT_EQ(s.blocked, 0);
    EXPECT_FALSE(s.inconsistent());
    EXPECT_DOUBLE_EQ(s.blockedFraction(), 0.0);
  }
  // Clock advanced 2 passes * 2h.
  EXPECT_EQ(world.now().hours(), 4);
}

TEST_F(OtherCensorshipFixture, RepeatedTesterDetectsInconsistency) {
  // A firewall that drops only on even hours (deterministic flapping).
  struct FlappingFirewall : simnet::Middlebox {
    std::string name() const override { return "flapping"; }
    std::optional<simnet::Preempt> onRequest(
        simnet::PathContext& ctx) override {
      if (ctx.policy.now.hours() % 2 == 0)
        return simnet::Preempt::reset(simnet::FailureCause::kMiddlebox);
      return std::nullopt;
    }
  };
  isp->attachMiddlebox(world.makeMiddlebox<FlappingFirewall>());

  const auto site = hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  measure::RepeatedTester tester(world, *field, *lab);
  const std::vector<std::string> urls{"http://" + site.hostname + "/"};
  const auto stats = tester.run(urls, /*passes=*/4, /*hoursBetweenPasses=*/1);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].blocked, 2);
  EXPECT_EQ(stats[0].accessible, 2);
  EXPECT_TRUE(stats[0].inconsistent());
  EXPECT_TRUE(stats[0].everBlocked());
  EXPECT_DOUBLE_EQ(stats[0].blockedFraction(), 0.5);
  EXPECT_FALSE(stats[0].attributedProduct);  // resets carry no block page
}

}  // namespace
}  // namespace urlf
