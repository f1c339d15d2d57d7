// Truth table for the folded path cacheability rule (DESIGN.md §4.10).
//
// Every stage reports one of three levels — none < local < shared — and a
// client's paths take the minimum. The three client gates must read exactly
// as the per-property predicates they replaced did:
//   verdict memo         = deterministic ∧ no interference     (≥ local)
//   shared store, reuse  = … ∧ side-effect free                (= shared)
// Each row arms one kind of stage and states those three properties; the
// expected gates are derived from the old formulas, never from the new rule.
// The armed path is tried at both positions of the client's vantage pair.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "filters/bluecoat.h"
#include "filters/netsweeper.h"
#include "filters/smartfilter.h"
#include "filters/vendor.h"
#include "filters/websense.h"
#include "measure/client.h"
#include "measure/shared_memo.h"
#include "simnet/world.h"

namespace {

using namespace urlf;
using simnet::Cacheability;

/// A world with one armed ISP, one clean ISP and the lab.
struct GateWorld {
  simnet::World world{4242};
  simnet::Isp* armed = nullptr;
  const simnet::VantagePoint* armedField = nullptr;
  const simnet::VantagePoint* cleanField = nullptr;
  const simnet::VantagePoint* lab = nullptr;
  filters::Vendor netsweeper{filters::ProductKind::kNetsweeper, world};
  filters::Vendor websense{filters::ProductKind::kWebsense, world};
  filters::Vendor bluecoat{filters::ProductKind::kBlueCoat, world};

  GateWorld() {
    world.createAs(64510, "ARMED", "Armed Telecom", "AR",
                   {net::IpPrefix{net::Ipv4Addr{std::uint32_t{10} << 24}, 16}});
    world.createAs(64511, "CLEAN", "Clean Telecom", "CL",
                   {net::IpPrefix{net::Ipv4Addr{std::uint32_t{11} << 24}, 16}});
    armed = &world.createIsp("Armed ISP", "AR", {64510});
    auto& clean = world.createIsp("Clean ISP", "CL", {64511});
    armedField = &world.createVantage("field-armed", "AR", armed);
    cleanField = &world.createVantage("field-clean", "CL", &clean);
    lab = &world.createVantage("lab-control", "CA", nullptr);
  }

  filters::NetsweeperDeployment& netsweeperBox(bool queue, double offline) {
    filters::FilterPolicy policy;
    policy.blockedCategories = {23};
    policy.queueAccessedUrls = queue;
    policy.offlineProbability = offline;
    return world.makeMiddlebox<filters::NetsweeperDeployment>(
        "armed-netsweeper", netsweeper, policy);
  }
};

/// One chain kind: how to arm it, and the three properties the replaced
/// predicates reported for it.
struct ChainKind {
  std::string name;
  std::function<void(GateWorld&)> arm;
  bool deterministic;
  bool sideEffectFree;
  bool interferenceFree;
};

std::vector<ChainKind> chainKinds() {
  return {
      {"no stages", [](GateWorld&) {}, true, true, true},
      {"deterministic netsweeper",
       [](GateWorld& g) { g.armed->attachMiddlebox(g.netsweeperBox(false, 0)); },
       true, true, true},
      {"queue-on-access netsweeper",
       [](GateWorld& g) { g.armed->attachMiddlebox(g.netsweeperBox(true, 0)); },
       true, false, true},
      {"offline-probability netsweeper",
       [](GateWorld& g) {
         g.armed->attachMiddlebox(g.netsweeperBox(false, 0.25));
       },
       false, true, true},
      {"queueing, offline-probability netsweeper",
       [](GateWorld& g) {
         g.armed->attachMiddlebox(g.netsweeperBox(true, 0.25));
       },
       false, false, true},
      {"websense licence model",
       [](GateWorld& g) {
         auto& box = g.world.makeMiddlebox<filters::WebsenseDeployment>(
             "armed-websense", g.websense, filters::FilterPolicy{});
         box.setLicenseModel(filters::LicenseModel{});
         g.armed->attachMiddlebox(box);
       },
       false, true, true},
      {"proxysg with a queue-on-access engine",
       [](GateWorld& g) {
         auto& engine = g.netsweeperBox(true, 0);
         auto& proxy = g.world.makeMiddlebox<filters::BlueCoatProxySG>(
             "armed-proxysg", g.bluecoat, filters::FilterPolicy{});
         proxy.setFilteringEngine(engine);
         g.armed->attachMiddlebox(proxy);
       },
       true, false, true},
      {"stateless packet filters",
       [](GateWorld& g) {
         auto& dns = g.world.makePacketFilter<simnet::DnsPoisoner>(
             "dns", simnet::DnsTamper::Kind::kNxdomain);
         dns.poisonZone("blocked.example");
         g.armed->attachPacketFilter(dns);
         g.armed->attachPacketFilter(g.world.makePacketFilter<simnet::RstInjector>(
             "rst", std::vector<std::string>{"blocked"}));
         g.armed->attachPacketFilter(g.world.makePacketFilter<simnet::SniFilter>(
             "sni", std::vector<std::string>{"blocked.example"}));
         g.armed->attachPacketFilter(
             g.world.makePacketFilter<simnet::NullRouteFilter>(
                 "null", std::vector<std::string>{"blocked.example"}));
       },
       true, true, true},
      {"stateful rst injector",
       [](GateWorld& g) {
         g.armed->attachPacketFilter(g.world.makePacketFilter<simnet::RstInjector>(
             "rst", std::vector<std::string>{"blocked"}, /*holdDownHours=*/24));
       },
       true, false, true},
      {"active interference plan",
       [](GateWorld& g) {
         simnet::InterferenceProfile profile;
         profile.flakyRate = 0.1;
         simnet::InterferencePlan plan(3);
         plan.setIspProfile("Armed ISP", profile);
         g.world.setInterferencePlan(plan);
       },
       true, true, false},
      {"inert interference plan",
       [](GateWorld& g) {
         g.world.setInterferencePlan(simnet::InterferencePlan(3));
       },
       true, true, true},
      {"fault plan",
       [](GateWorld& g) {
         g.world.setFaultPlan(
             simnet::FaultPlan(5, simnet::FaultRates::uniform(0.1)));
       },
       true, true, true},
      {"outage plan",
       [](GateWorld& g) {
         simnet::OutagePlan plan(6);
         plan.killVantage("field-armed", util::SimTime{100});
         plan.stopMiddlebox("armed-netsweeper", util::SimTime{50});
         plan.addDbRollback(util::SimTime{10}, util::SimTime{20},
                            util::SimTime{0});
         g.world.setOutagePlan(plan);
       },
       true, true, true},
  };
}

Cacheability expectedLevel(const ChainKind& kind) {
  if (!kind.deterministic || !kind.interferenceFree) return Cacheability::kNone;
  return kind.sideEffectFree ? Cacheability::kShared : Cacheability::kLocal;
}

TEST(PathCacheability, FoldMatchesTheReplacedPredicates) {
  for (const ChainKind& kind : chainKinds()) {
    // The gates the replaced predicates computed.
    const bool memoGate = kind.deterministic && kind.interferenceFree;
    const bool sharedGate = memoGate && kind.sideEffectFree;

    for (const bool armedIsField : {true, false}) {
      SCOPED_TRACE(kind.name + (armedIsField ? " (field side)" : " (lab side)"));
      GateWorld g;
      kind.arm(g);
      const auto& field = armedIsField ? *g.armedField : *g.cleanField;
      const auto& second = armedIsField ? *g.lab : *g.armedField;

      measure::Client client(g.world, field, second);
      measure::SharedVerdictStore store;
      client.enableVerdictMemo(true);
      client.attachSharedMemo(&store, 1);

      EXPECT_EQ(client.cacheability(), expectedLevel(kind));
      EXPECT_EQ(client.verdictMemoActive(), memoGate);
      EXPECT_EQ(client.sharedMemoActive(), sharedGate);
      EXPECT_EQ(client.cacheableChains(), sharedGate);

      // The clean vantage's own path is never held down by the armed one.
      simnet::Transport transport(g.world);
      EXPECT_EQ(transport.cacheability(*g.cleanField), Cacheability::kShared);
      EXPECT_EQ(transport.cacheability(*g.lab), Cacheability::kShared);
      EXPECT_EQ(transport.cacheability(*g.armedField), expectedLevel(kind));
    }
  }
}

TEST(PathCacheability, MemoGateIsRecheckedWhenAStageArrivesLater) {
  GateWorld g;
  measure::Client client(g.world, *g.armedField, *g.lab);
  client.enableVerdictMemo(true);
  EXPECT_TRUE(client.verdictMemoActive());

  g.armed->attachMiddlebox(g.netsweeperBox(false, 0.25));
  EXPECT_FALSE(client.cacheableChains()) << "cacheableChains reads live";
  client.enableVerdictMemo(true);
  EXPECT_FALSE(client.verdictMemoActive());
}

}  // namespace
