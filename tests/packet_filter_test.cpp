// Unit tests for the packet-level flow layer (DESIGN.md §4.8): the shared
// FlowTable conntrack and the four packet-filter mechanism models, pinned
// down to the client-visible FailureSignature and the simulator-side
// FailureCause each one produces.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simnet/flow.h"
#include "simnet/origin_server.h"
#include "simnet/packet_filter.h"
#include "simnet/transport.h"
#include "simnet/world.h"

namespace {

using namespace urlf;
using simnet::FailureCause;
using simnet::FailureSignature;
using simnet::FetchOutcome;

// --- FlowTable ------------------------------------------------------------

TEST(FlowTableTest, TrackIsBookkeepingOnly) {
  simnet::FlowTable table;
  const simnet::FlowKey key{"field", "example.org", 80};
  EXPECT_EQ(table.stateEpoch(), 0u);

  table.track(key, util::SimTime{10});
  table.track(key, util::SimTime{11});
  EXPECT_EQ(table.stateEpoch(), 0u) << "tracking must not invalidate memos";
  const auto* entry = table.find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->flowsSeen, 2u);
  EXPECT_EQ(entry->lastSeen, util::SimTime{11});
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, KillCountersStayOutOfTheEpoch) {
  simnet::FlowTable table;
  const simnet::FlowKey key{"field", "example.org", 80};
  table.recordKill(key, util::SimTime{5});
  table.recordKill(key, util::SimTime{6});
  EXPECT_EQ(table.totalKills(), 2u);
  EXPECT_EQ(table.find(key)->kills, 2u);
  EXPECT_EQ(table.stateEpoch(), 0u);
}

TEST(FlowTableTest, ArmResidualBumpsEpochOnlyWhenExtending) {
  simnet::FlowTable table;
  const simnet::FlowKey key{"field", "example.org", 80};
  EXPECT_FALSE(table.residualActive(key, util::SimTime{0}));

  // The window is half-open: active while now < until.
  table.armResidual(key, util::SimTime{10}, util::SimTime{34});
  EXPECT_EQ(table.stateEpoch(), 1u);
  EXPECT_TRUE(table.residualActive(key, util::SimTime{10}));
  EXPECT_TRUE(table.residualActive(key, util::SimTime{33}));
  EXPECT_FALSE(table.residualActive(key, util::SimTime{34}));

  // Re-arming inside the window with an earlier expiry changes nothing.
  table.armResidual(key, util::SimTime{11}, util::SimTime{20});
  EXPECT_EQ(table.stateEpoch(), 1u);
  EXPECT_TRUE(table.residualActive(key, util::SimTime{33}));

  // Extending the window is decision-relevant and bumps the epoch.
  table.armResidual(key, util::SimTime{12}, util::SimTime{60});
  EXPECT_EQ(table.stateEpoch(), 2u);
  EXPECT_TRUE(table.residualActive(key, util::SimTime{59}));
  EXPECT_FALSE(table.residualActive(key, util::SimTime{60}));

  // Other keys are unaffected.
  EXPECT_FALSE(table.residualActive({"field", "other.org", 80},
                                    util::SimTime{12}));
}

// --- filter models over the transport -------------------------------------

struct PacketWorld {
  simnet::World world{20130813};
  simnet::Isp* isp = nullptr;
  const simnet::VantagePoint* field = nullptr;
  const simnet::VantagePoint* lab = nullptr;

  PacketWorld() {
    world.createAs(64500, "TESTNET", "Testland Telecom", "TL",
                   {net::IpPrefix{net::Ipv4Addr{std::uint32_t{10} << 24},
                                  16}});
    isp = &world.createIsp("Testland Telecom", "TL", {64500});
    field = &world.createVantage("field-testland", "TL", isp);
    lab = &world.createVantage("lab-control", "CA", nullptr);
  }

  void addSite(const std::string& host, std::uint16_t port = 80) {
    auto& server = world.makeEndpoint<simnet::OriginServer>(host);
    simnet::Page page;
    page.title = host;
    page.body = "<h1>" + host + "</h1>";
    server.setPage("/", std::move(page));
    const auto ip = world.allocateAddress(64500);
    world.bind(ip, port, server, /*externallyVisible=*/true);
    world.registerHostname(host, ip);
  }
};

TEST(PacketFilterTest, DnsPoisonerForgesNxdomainForFieldOnly) {
  PacketWorld pw;
  pw.addSite("blocked.example");
  pw.addSite("open.example");
  auto& poisoner = pw.world.makePacketFilter<simnet::DnsPoisoner>(
      "poisoner", simnet::DnsTamper::Kind::kNxdomain);
  poisoner.poisonZone("blocked.example");
  pw.isp->attachPacketFilter(poisoner);

  simnet::Transport transport(pw.world);
  const auto field =
      transport.fetchUrl(*pw.field, "http://blocked.example/");
  EXPECT_EQ(field.outcome, FetchOutcome::kDnsFailure);
  EXPECT_EQ(field.signature, FailureSignature::kEmptyDns);
  EXPECT_EQ(field.cause, FailureCause::kPacketFilter);

  // Subdomains of a poisoned zone match; unrelated hosts do not.
  EXPECT_FALSE(
      transport.resolveFrom(*pw.field, "www.blocked.example").has_value());
  EXPECT_TRUE(transport.fetchUrl(*pw.field, "http://open.example/").ok());

  // The lab vantage has no ISP, so its queries never cross the filter.
  EXPECT_TRUE(transport.fetchUrl(*pw.lab, "http://blocked.example/").ok());
  EXPECT_GE(poisoner.queriesPoisoned(), 2u);
}

TEST(PacketFilterTest, DnsPoisonerForgedModeSinkholesResolution) {
  PacketWorld pw;
  pw.addSite("blocked.example");
  const auto sinkhole = net::Ipv4Addr{(std::uint32_t{10} << 24) | 0xFFFF};
  auto& poisoner = pw.world.makePacketFilter<simnet::DnsPoisoner>(
      "sinkholer", simnet::DnsTamper::Kind::kForged, sinkhole);
  poisoner.poisonZone("blocked.example");
  pw.isp->attachPacketFilter(poisoner);

  simnet::Transport transport(pw.world);
  const auto forged = transport.resolveFrom(*pw.field, "blocked.example");
  ASSERT_TRUE(forged.has_value());
  EXPECT_EQ(*forged, sinkhole);
  const auto honest = transport.resolveFrom(*pw.lab, "blocked.example");
  ASSERT_TRUE(honest.has_value());
  EXPECT_NE(*honest, sinkhole);
}

TEST(PacketFilterTest, StatelessRstInjectorAlwaysKillsAfterRequest) {
  PacketWorld pw;
  pw.addSite("keyword.example");
  auto& injector = pw.world.makePacketFilter<simnet::RstInjector>(
      "injector", std::vector<std::string>{"keyword.example"},
      /*holdDownHours=*/0);
  pw.isp->attachPacketFilter(injector);
  EXPECT_EQ(injector.cacheability(*pw.field), simnet::Cacheability::kShared);

  simnet::Transport transport(pw.world);
  for (int trial = 0; trial < 3; ++trial) {
    const auto result =
        transport.fetchUrl(*pw.field, "http://keyword.example/");
    EXPECT_EQ(result.outcome, FetchOutcome::kReset);
    EXPECT_EQ(result.signature, FailureSignature::kRstAfterRequest)
        << "a stateless injector has no hold-down; every kill waits for "
           "the request bytes";
    EXPECT_EQ(result.cause, FailureCause::kPacketFilter);
  }
  EXPECT_EQ(injector.resetsInjected(), 3u);
  EXPECT_EQ(injector.residualKills(), 0u);
  EXPECT_EQ(pw.world.flows().stateEpoch(), 0u);
}

TEST(PacketFilterTest, StatefulRstInjectorArmsResidualHoldDown) {
  PacketWorld pw;
  pw.addSite("keyword.example");
  auto& injector = pw.world.makePacketFilter<simnet::RstInjector>(
      "injector", std::vector<std::string>{"keyword.example"},
      /*holdDownHours=*/24);
  pw.isp->attachPacketFilter(injector);
  // A kill arms hold-down state: a client may replay its own verdicts, but
  // no other world may skip the fetch.
  EXPECT_EQ(injector.cacheability(*pw.field), simnet::Cacheability::kLocal);

  simnet::Transport transport(pw.world);
  const auto epochBefore = pw.world.middleboxStateEpoch();
  const auto first = transport.fetchUrl(*pw.field, "http://keyword.example/");
  EXPECT_EQ(first.signature, FailureSignature::kRstAfterRequest);
  EXPECT_GT(pw.world.middleboxStateEpoch(), epochBefore)
      << "arming the hold-down must invalidate verdict memos";

  // Inside the window every flow to the destination dies pre-banner.
  const auto second = transport.fetchUrl(*pw.field, "http://keyword.example/");
  EXPECT_EQ(second.signature, FailureSignature::kRstBeforeBanner);
  EXPECT_EQ(second.cause, FailureCause::kPacketFilter);
  EXPECT_EQ(injector.residualKills(), 1u);

  // Past the window the injector is back to needing the request bytes.
  pw.world.clock().advanceHours(25);
  const auto third = transport.fetchUrl(*pw.field, "http://keyword.example/");
  EXPECT_EQ(third.signature, FailureSignature::kRstAfterRequest);
}

TEST(PacketFilterTest, SniFilterKillsHandshakeButFailsOpenWithoutSni) {
  PacketWorld pw;
  pw.addSite("secure.example", 443);
  pw.addSite("cleartext.example", 80);
  auto& filter = pw.world.makePacketFilter<simnet::SniFilter>(
      "sni", std::vector<std::string>{"secure.example"});
  pw.isp->attachPacketFilter(filter);

  simnet::Transport transport(pw.world);
  const auto killed = transport.fetchUrl(*pw.field, "https://secure.example/");
  EXPECT_EQ(killed.outcome, FetchOutcome::kReset);
  EXPECT_EQ(killed.signature, FailureSignature::kRstBeforeBanner);
  EXPECT_EQ(killed.cause, FailureCause::kPacketFilter);

  // ESNI/ECH-style omission: no server name in the hello, filter fails open.
  simnet::FetchOptions omit;
  omit.omitSni = true;
  const auto evaded =
      transport.fetchUrl(*pw.field, "https://secure.example/", omit);
  EXPECT_TRUE(evaded.ok());
  EXPECT_EQ(filter.handshakesKilled(), 1u);
  EXPECT_GE(filter.esniPassed(), 1u);

  // Cleartext flows never reach an SNI filter.
  EXPECT_TRUE(transport.fetchUrl(*pw.field, "http://cleartext.example/").ok());
}

TEST(PacketFilterTest, NullRouteBlackholesTheSyn) {
  PacketWorld pw;
  pw.addSite("routed.example");
  auto& filter = pw.world.makePacketFilter<simnet::NullRouteFilter>(
      "blackhole", std::vector<std::string>{"routed.example"});
  pw.isp->attachPacketFilter(filter);

  simnet::Transport transport(pw.world);
  const auto result = transport.fetchUrl(*pw.field, "http://routed.example/");
  EXPECT_EQ(result.outcome, FetchOutcome::kTimeout);
  EXPECT_EQ(result.signature, FailureSignature::kTimeout);
  EXPECT_EQ(result.cause, FailureCause::kPacketFilter);
  EXPECT_EQ(filter.flowsBlackholed(), 1u);
  EXPECT_TRUE(transport.fetchUrl(*pw.lab, "http://routed.example/").ok());
}

TEST(PacketFilterTest, OrganicFailuresKeepOrganicCause) {
  PacketWorld pw;
  pw.addSite("alive.example");
  simnet::Transport transport(pw.world);

  const auto noDns = transport.fetchUrl(*pw.field, "http://nodns.example/");
  EXPECT_EQ(noDns.outcome, FetchOutcome::kDnsFailure);
  EXPECT_EQ(noDns.cause, FailureCause::kOrganic);

  const auto noListener =
      transport.fetchUrl(*pw.field, "http://alive.example:8080/");
  EXPECT_EQ(noListener.outcome, FetchOutcome::kConnectFailure);
  EXPECT_EQ(noListener.cause, FailureCause::kOrganic);
}

}  // namespace
