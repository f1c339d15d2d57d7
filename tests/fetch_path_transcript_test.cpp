// Fetch-path transcript: one world that arms every kind of path stage at
// once — outage (vantage death, middlebox silent-stop, DB rollback), fault
// injection, adversarial interference (lockout, tarpit with and without a
// deadline, hide, flaky, mimicry), DNS poisoning (NXDOMAIN and forged), RST
// injection (stateless and stateful), SNI filtering (with and without an
// omitted SNI), null-routing, and middlebox chains with return-path
// post-processing — driven through a fixed script of fetches.
//
// Every row records what the client saw (outcome, signature, cause, the
// injected fault, the interference effect, the error text and a hash of the
// response bytes including redirects) plus what resolveFrom answers for
// every host. The golden transcript pins the precedence between stages when
// they are combined, not just one at a time. When a deliberate behaviour
// change moves a row, the failure message prints the full new transcript in
// the golden's own syntax so it can be re-pinned after review.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "filters/bluecoat.h"
#include "filters/netsweeper.h"
#include "filters/smartfilter.h"
#include "filters/vendor.h"
#include "http/wire.h"
#include "simnet/fault.h"
#include "simnet/interference.h"
#include "simnet/origin_server.h"
#include "simnet/outage.h"
#include "simnet/packet_filter.h"
#include "simnet/transport.h"
#include "simnet/world.h"
#include "util/hash.h"

namespace {

using namespace urlf;

constexpr std::uint32_t kAlphaAsn = 64500;
constexpr std::uint32_t kBetaAsn = 64501;
constexpr std::uint32_t kHostingAsn = 64600;
constexpr filters::CategoryId kNetsweeperPorn = 23;
constexpr filters::CategoryId kSmartFilterPorn = 1;

util::SimTime hour(std::int64_t h) { return util::SimTime{h}; }

/// Every stage kind armed in one world. Field vantages: two in Alpha (one of
/// which dies mid-script), one in Beta (the interfering ISP); plus the lab.
struct StageWorld {
  simnet::World world{20131023};
  simnet::Isp* alpha = nullptr;
  simnet::Isp* beta = nullptr;
  std::vector<const simnet::VantagePoint*> vantages;
  std::unique_ptr<filters::Vendor> netsweeper;
  std::unique_ptr<filters::Vendor> smartfilter;
  std::unique_ptr<filters::Vendor> bluecoat;

  StageWorld() {
    world.createAs(kAlphaAsn, "ALPHA", "Alpha Telecom", "AL",
                   {net::IpPrefix{net::Ipv4Addr{std::uint32_t{10} << 24}, 16}});
    world.createAs(kBetaAsn, "BETA", "Beta Telecom", "BE",
                   {net::IpPrefix{net::Ipv4Addr{std::uint32_t{11} << 24}, 16}});
    world.createAs(kHostingAsn, "HOST", "Hosting", "US",
                   {net::IpPrefix{net::Ipv4Addr{std::uint32_t{20} << 24}, 16}});
    alpha = &world.createIsp("Alpha ISP", "AL", {kAlphaAsn});
    beta = &world.createIsp("Beta ISP", "BE", {kBetaAsn});
    vantages = {&world.createVantage("field-alpha", "AL", alpha),
                &world.createVantage("field-alpha-dead", "AL", alpha),
                &world.createVantage("field-beta", "BE", beta),
                &world.createVantage("lab-control", "CA", nullptr)};

    for (const char* host :
         {"open.example", "forbidden-news.example", "residual.example",
          "nx.example", "sink.example", "tls-blocked.example", "void.example",
          "ns-blocked.example", "late.example", "sf-only.example"})
      addSite(host);
    // Registered, but nothing listens at the address.
    world.registerHostname("unbound.example",
                           world.allocateAddress(kHostingAsn));

    armPacketFilters();
    armMiddleboxes();
    armPlans();
  }

  void addSite(const std::string& host) {
    auto& server = world.makeEndpoint<simnet::OriginServer>(host);
    simnet::Page page;
    page.title = host;
    page.body = "<h1>" + host + "</h1><p>plain content</p>";
    server.setPage("/", page);
    server.setCatchAll(page);
    const auto ip = world.allocateAddress(kHostingAsn);
    world.bind(ip, 80, server, /*externallyVisible=*/true);
    world.bind(ip, 443, server, /*externallyVisible=*/true);
    world.registerHostname(host, ip);
  }

  void armPacketFilters() {
    auto& nx = world.makePacketFilter<simnet::DnsPoisoner>(
        "alpha-nx", simnet::DnsTamper::Kind::kNxdomain);
    nx.poisonZone("nx.example");

    auto& sinkhole = world.makeEndpoint<simnet::OriginServer>("sinkhole");
    simnet::Page warning;
    warning.title = "Blocked by order of the authority";
    warning.body = "<h1>This website is not available.</h1>";
    sinkhole.setCatchAll(warning);
    const auto sinkholeIp = world.allocateAddress(kAlphaAsn);
    world.bind(sinkholeIp, 80, sinkhole, /*externallyVisible=*/false);
    auto& forged = world.makePacketFilter<simnet::DnsPoisoner>(
        "alpha-sinkhole", simnet::DnsTamper::Kind::kForged, sinkholeIp);
    forged.poisonZone("sink.example");

    auto& stateless = world.makePacketFilter<simnet::RstInjector>(
        "alpha-rst", std::vector<std::string>{"forbidden"});
    auto& stateful = world.makePacketFilter<simnet::RstInjector>(
        "alpha-rst-residual", std::vector<std::string>{"residual"},
        /*holdDownHours=*/24);
    auto& sni = world.makePacketFilter<simnet::SniFilter>(
        "alpha-sni", std::vector<std::string>{"tls-blocked.example"});
    auto& nullRoute = world.makePacketFilter<simnet::NullRouteFilter>(
        "alpha-null", std::vector<std::string>{"void.example"});
    for (simnet::PacketFilter* filter :
         std::vector<simnet::PacketFilter*>{&nx, &forged, &stateless,
                                            &stateful, &sni, &nullRoute})
      alpha->attachPacketFilter(*filter);

    auto& betaRst = world.makePacketFilter<simnet::RstInjector>(
        "beta-rst", std::vector<std::string>{"forbidden"});
    beta->attachPacketFilter(betaRst);
  }

  void armMiddleboxes() {
    filters::VendorConfig queueFast;
    queueFast.queueLatencyHours = 30;
    netsweeper = std::make_unique<filters::Vendor>(
        filters::ProductKind::kNetsweeper, world, queueFast);
    smartfilter = std::make_unique<filters::Vendor>(
        filters::ProductKind::kSmartFilter, world);
    bluecoat = std::make_unique<filters::Vendor>(
        filters::ProductKind::kBlueCoat, world);
    netsweeper->masterDb().addHost("ns-blocked.example", kNetsweeperPorn);
    netsweeper->masterDb().addHost("late.example", kNetsweeperPorn, hour(80));
    smartfilter->masterDb().addHost("sf-only.example", kSmartFilterPorn);
    smartfilter->masterDb().addHost("ns-blocked.example", kSmartFilterPorn);

    // Alpha: a SmartFilter the outage plan stops mid-script, an edge ProxySG
    // that only stamps proxy headers, and a ProxySG running a dice-rolling,
    // queue-on-access Netsweeper engine (world-RNG draws on every exchange).
    filters::FilterPolicy sfPolicy;
    sfPolicy.blockedCategories = {kSmartFilterPorn};
    auto& stopped = world.makeMiddlebox<filters::SmartFilterDeployment>(
        "alpha-stopped-sf", *smartfilter, sfPolicy);
    stopped.installExternalSurfaces(world, kAlphaAsn);

    auto& edge = world.makeMiddlebox<filters::BlueCoatProxySG>(
        "alpha-edge", *bluecoat, filters::FilterPolicy{});
    edge.installExternalSurfaces(world, kAlphaAsn);

    filters::FilterPolicy enginePolicy;
    enginePolicy.blockedCategories = {kNetsweeperPorn};
    enginePolicy.offlineProbability = 0.25;
    enginePolicy.queueAccessedUrls = true;
    auto& engine = world.makeMiddlebox<filters::NetsweeperDeployment>(
        "alpha-ns-engine", *netsweeper, enginePolicy);
    engine.installExternalSurfaces(world, kAlphaAsn);
    auto& tandem = world.makeMiddlebox<filters::BlueCoatProxySG>(
        "alpha-tandem", *bluecoat, filters::FilterPolicy{});
    tandem.installExternalSurfaces(world, kAlphaAsn);
    tandem.setFilteringEngine(engine);

    alpha->attachMiddlebox(stopped);
    alpha->attachMiddlebox(edge);
    alpha->attachMiddlebox(tandem);

    // Beta: a deterministic Netsweeper in front of a header-stamping ProxySG.
    filters::FilterPolicy nsPolicy;
    nsPolicy.blockedCategories = {kNetsweeperPorn};
    auto& betaNs = world.makeMiddlebox<filters::NetsweeperDeployment>(
        "beta-ns", *netsweeper, nsPolicy);
    betaNs.installExternalSurfaces(world, kBetaAsn);
    auto& betaProxy = world.makeMiddlebox<filters::BlueCoatProxySG>(
        "beta-proxy", *bluecoat, filters::FilterPolicy{});
    betaProxy.installExternalSurfaces(world, kBetaAsn);
    beta->attachMiddlebox(betaNs);
    beta->attachMiddlebox(betaProxy);
  }

  void armPlans() {
    simnet::FaultPlan faults(7);
    faults.setIspRates("Alpha ISP", simnet::FaultRates::uniform(0.03));
    faults.setCountryRates("CA", simnet::FaultRates::uniform(0.01));
    world.setFaultPlan(faults);

    simnet::OutagePlan outages(5);
    outages.killVantage("field-alpha-dead", hour(30));
    outages.stopMiddlebox("alpha-stopped-sf", hour(60));
    outages.addDbRollback(hour(90), hour(120), hour(10));
    world.setOutagePlan(outages);

    simnet::InterferenceProfile profile;
    profile.probeThreshold = 10;
    profile.probeWindowHours = 1;
    profile.hideHours = 4;
    profile.lockoutThreshold = 14;
    profile.lockoutWindowHours = 1;
    profile.banHours = 2;
    profile.tarpitRate = 0.3;
    profile.tarpitHours = 6;
    profile.flakyRate = 0.2;
    profile.mimicryRate = 0.6;
    profile.mimicPool = {simnet::MimicTemplate::kSmartFilter,
                         simnet::MimicTemplate::kBlueCoat,
                         simnet::MimicTemplate::kWebsense};
    simnet::InterferencePlan interference(11);
    interference.setIspProfile("Beta ISP", profile);
    world.setInterferencePlan(interference);
  }
};

const std::vector<std::string>& scriptUrls() {
  static const std::vector<std::string> urls = {
      "http://open.example/",
      "https://open.example/",
      "http://open.example/forbidden-page",
      "http://forbidden-news.example/",
      "https://forbidden-news.example/",  // TLS: the keyword is not on the wire
      "http://residual.example/",
      "http://residual.example/",  // repeat: the residual hold-down bites
      "http://nx.example/",
      "http://www.sink.example/",
      "https://tls-blocked.example/",
      "http://tls-blocked.example/",
      "http://void.example/",
      "http://ns-blocked.example/",
      "http://ns-blocked.example/a",
      "http://ns-blocked.example/b",
      "http://ns-blocked.example/c",
      "http://ns-blocked.example/d",
      "http://late.example/",
      "http://sf-only.example/",
      "http://missing.example/",
      "http://unbound.example/",
  };
  return urls;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string row(const simnet::VantagePoint& vantage, const std::string& url,
                int attempt, const simnet::FetchOptions& options,
                const simnet::FetchResult& result) {
  std::string line = vantage.name + " " + url + " a" + std::to_string(attempt);
  if (options.omitSni) line += " nosni";
  if (options.attemptDeadlineHours > 0)
    line += " dl" + std::to_string(options.attemptDeadlineHours);
  line += " => ";
  line += simnet::toString(result.outcome);
  line += " ";
  line += simnet::toString(result.signature);
  line += " ";
  line += simnet::toString(result.cause);
  line += " fault=";
  line += simnet::toString(result.injectedFault);
  line += " intf=";
  line += simnet::toString(result.interference);
  line += " hops=" + std::to_string(result.redirectChain.size());
  std::string wire;
  for (const auto& hop : result.redirectChain) http::serializeTo(hop, wire);
  if (result.response) http::serializeTo(*result.response, wire);
  line += " resp=";
  line += wire.empty() ? std::string("-") : hex(util::fnv1a64(wire));
  line += " err=" + result.error;
  return line;
}

std::vector<std::string> runScript() {
  StageWorld sw;
  simnet::Transport transport(sw.world);
  std::vector<std::string> transcript;

  // resolveFrom consumes no fault draw and advances nothing; record it for
  // every host from every vantage before the fetches start.
  for (const auto* vantage : sw.vantages) {
    for (const char* host :
         {"open.example", "nx.example", "www.nx.example", "sink.example",
          "www.sink.example", "void.example", "missing.example",
          "unbound.example"}) {
      const auto ip = transport.resolveFrom(*vantage, host);
      transcript.push_back(vantage->name + " resolve " + host + " => " +
                           (ip ? ip->toString() : std::string("nxdomain")));
    }
  }

  const auto fetch = [&](const simnet::VantagePoint& vantage,
                         const std::string& url, int attempt,
                         simnet::FetchOptions options) {
    options.attemptBase = attempt;
    const auto result = transport.fetchUrl(vantage, url, options);
    transcript.push_back(row(vantage, url, attempt, options, result));
  };

  // Phases straddle the outage plan's timeline: the dead vantage dies at
  // hour 30, the SmartFilter stops at hour 60, the policy view rolls back
  // to hour 10 during [90, 120), and late.example is categorized at 80.
  const std::int64_t phaseHours[] = {0, 35, 65, 95, 130};
  for (int phase = 0; phase < 5; ++phase) {
    const std::int64_t phaseHour = phaseHours[phase];
    if (sw.world.now() < hour(phaseHour))
      sw.world.clock().advanceHours(phaseHour - sw.world.now().hours());
    transcript.push_back("-- phase hour " + std::to_string(phaseHour) +
                         " (now " + std::to_string(sw.world.now().hours()) +
                         ")");
    // Each phase rolls its own attempt-keyed draws.
    const int attempt = 4 * phase;

    // A per-attempt deadline turns a tarpit into a slow drip.
    simnet::FetchOptions deadline;
    deadline.attemptDeadlineHours = 2;
    for (const auto& url : scriptUrls())
      fetch(*sw.vantages[2], url, attempt + 2, deadline);

    for (const auto* vantage : sw.vantages)
      for (const auto& url : scriptUrls()) fetch(*vantage, url, attempt, {});

    // The same URLs on the next attempt index.
    for (const auto* vantage : {sw.vantages[0], sw.vantages[2]})
      for (const auto& url : scriptUrls())
        fetch(*vantage, url, attempt + 1, {});

    // ESNI-style omission: the SNI filter fails open.
    simnet::FetchOptions noSni;
    noSni.omitSni = true;
    fetch(*sw.vantages[0], "https://tls-blocked.example/", attempt + 3, noSni);
    fetch(*sw.vantages[0], "https://open.example/", attempt + 3, noSni);
  }
  return transcript;
}

// The golden transcript. Regenerate only for a deliberate behaviour change;
// the failure message below prints the replacement.
// clang-format off
const char* const kGolden[] = {
    "field-alpha resolve open.example => 20.0.0.1",
    "field-alpha resolve nx.example => nxdomain",
    "field-alpha resolve www.nx.example => nxdomain",
    "field-alpha resolve sink.example => 10.0.0.1",
    "field-alpha resolve www.sink.example => 10.0.0.1",
    "field-alpha resolve void.example => 20.0.0.7",
    "field-alpha resolve missing.example => nxdomain",
    "field-alpha resolve unbound.example => 20.0.0.11",
    "field-alpha-dead resolve open.example => 20.0.0.1",
    "field-alpha-dead resolve nx.example => nxdomain",
    "field-alpha-dead resolve www.nx.example => nxdomain",
    "field-alpha-dead resolve sink.example => 10.0.0.1",
    "field-alpha-dead resolve www.sink.example => 10.0.0.1",
    "field-alpha-dead resolve void.example => 20.0.0.7",
    "field-alpha-dead resolve missing.example => nxdomain",
    "field-alpha-dead resolve unbound.example => 20.0.0.11",
    "field-beta resolve open.example => 20.0.0.1",
    "field-beta resolve nx.example => 20.0.0.4",
    "field-beta resolve www.nx.example => nxdomain",
    "field-beta resolve sink.example => 20.0.0.5",
    "field-beta resolve www.sink.example => nxdomain",
    "field-beta resolve void.example => 20.0.0.7",
    "field-beta resolve missing.example => nxdomain",
    "field-beta resolve unbound.example => 20.0.0.11",
    "lab-control resolve open.example => 20.0.0.1",
    "lab-control resolve nx.example => 20.0.0.4",
    "lab-control resolve www.nx.example => nxdomain",
    "lab-control resolve sink.example => 20.0.0.5",
    "lab-control resolve www.sink.example => nxdomain",
    "lab-control resolve void.example => 20.0.0.7",
    "lab-control resolve missing.example => nxdomain",
    "lab-control resolve unbound.example => 20.0.0.11",
    "-- phase hour 0 (now 0)",
    "field-beta http://open.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta https://open.example/ a2 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://open.example/forbidden-page a2 dl2 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta http://forbidden-news.example/ a2 dl2 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta https://forbidden-news.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=f443695a6bbb8fcb err=",
    "field-beta http://residual.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=b622a0404b5db870 err=",
    "field-beta http://residual.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=b622a0404b5db870 err=",
    "field-beta http://nx.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=9d1f4b35e278e5f3 err=",
    "field-beta http://www.sink.example/ a2 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta https://tls-blocked.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=f49ed9bb9b329ac5 err=",
    "field-beta http://tls-blocked.example/ a2 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://void.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=4a90a520b4b82b4f err=",
    "field-beta http://ns-blocked.example/ a2 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/a a2 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=1 resp=9b2e6a77e1058db6 err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/b a2 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/c a2 dl2 => ok none none fault=none intf=mimicry hops=0 resp=a7aaa513ca4c2465 err=",
    "field-beta http://ns-blocked.example/d a2 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://late.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=755fb9efa3056423 err=",
    "field-beta http://sf-only.example/ a2 dl2 => ok none none fault=none intf=none hops=0 resp=1e7aab8c159352de err=",
    "field-beta http://missing.example/ a2 dl2 => dns-failure empty-dns organic fault=none intf=flaky-open hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-beta http://unbound.example/ a2 dl2 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha http://open.example/ a0 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a0 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a0 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://forbidden-news.example/ a0 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a0 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha http://residual.example/ a0 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a0 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a0 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a0 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a0 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://tls-blocked.example/ a0 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a0 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha http://ns-blocked.example/ a0 => ok none none fault=none intf=none hops=0 resp=2094709d75836709 err=",
    "field-alpha http://ns-blocked.example/a a0 => ok none none fault=none intf=none hops=0 resp=f4cdf7587897bde7 err=",
    "field-alpha http://ns-blocked.example/b a0 => ok none none fault=none intf=none hops=0 resp=7b95ba465fddceba err=",
    "field-alpha http://ns-blocked.example/c a0 => ok none none fault=none intf=none hops=0 resp=51e7de4cb6e126f1 err=",
    "field-alpha http://ns-blocked.example/d a0 => ok none none fault=none intf=none hops=0 resp=18da0873f00d0374 err=",
    "field-alpha http://late.example/ a0 => ok none none fault=none intf=none hops=0 resp=730549ed5456156a err=",
    "field-alpha http://sf-only.example/ a0 => ok none none fault=none intf=none hops=0 resp=18f3e247605b50c9 err=",
    "field-alpha http://missing.example/ a0 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a0 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha-dead http://open.example/ a0 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha-dead https://open.example/ a0 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha-dead http://open.example/forbidden-page a0 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha-dead http://forbidden-news.example/ a0 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha-dead https://forbidden-news.example/ a0 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha-dead http://residual.example/ a0 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha-dead http://residual.example/ a0 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha-dead http://nx.example/ a0 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha-dead http://www.sink.example/ a0 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha-dead https://tls-blocked.example/ a0 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha-dead http://tls-blocked.example/ a0 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "field-alpha-dead http://void.example/ a0 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha-dead http://ns-blocked.example/ a0 => ok none none fault=none intf=none hops=0 resp=2094709d75836709 err=",
    "field-alpha-dead http://ns-blocked.example/a a0 => ok none none fault=none intf=none hops=0 resp=f4cdf7587897bde7 err=",
    "field-alpha-dead http://ns-blocked.example/b a0 => ok none none fault=none intf=none hops=0 resp=7b95ba465fddceba err=",
    "field-alpha-dead http://ns-blocked.example/c a0 => ok none none fault=none intf=none hops=0 resp=51e7de4cb6e126f1 err=",
    "field-alpha-dead http://ns-blocked.example/d a0 => ok none none fault=none intf=none hops=0 resp=18da0873f00d0374 err=",
    "field-alpha-dead http://late.example/ a0 => ok none none fault=none intf=none hops=0 resp=730549ed5456156a err=",
    "field-alpha-dead http://sf-only.example/ a0 => ok none none fault=none intf=none hops=0 resp=18f3e247605b50c9 err=",
    "field-alpha-dead http://missing.example/ a0 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha-dead http://unbound.example/ a0 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-beta http://open.example/ a0 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta https://open.example/ a0 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta http://open.example/forbidden-page a0 => reset rst-after-request packet-filter fault=none intf=tarpit hops=0 resp=- err=connection reset by peer",
    "field-beta http://forbidden-news.example/ a0 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta https://forbidden-news.example/ a0 => ok none none fault=none intf=flaky-open hops=0 resp=4c4cc404121d0f92 err=",
    "field-beta http://residual.example/ a0 => ok none none fault=none intf=none hops=0 resp=b622a0404b5db870 err=",
    "field-beta http://residual.example/ a0 => ok none none fault=none intf=none hops=0 resp=b622a0404b5db870 err=",
    "field-beta http://nx.example/ a0 => ok none none fault=none intf=none hops=0 resp=9d1f4b35e278e5f3 err=",
    "field-beta http://www.sink.example/ a0 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "field-beta https://tls-blocked.example/ a0 => ok none none fault=none intf=flaky-open hops=0 resp=52e0873342446fec err=",
    "field-beta http://tls-blocked.example/ a0 => ok none none fault=none intf=none hops=0 resp=f49ed9bb9b329ac5 err=",
    "field-beta http://void.example/ a0 => ok none none fault=none intf=tarpit hops=0 resp=4a90a520b4b82b4f err=",
    "field-beta http://ns-blocked.example/ a0 => ok none none fault=none intf=mimicry hops=0 resp=a7aaa513ca4c2465 err=",
    "field-beta http://ns-blocked.example/a a0 => ok none none fault=none intf=mimicry hops=0 resp=d256ef811aa4ebfc err=",
    "field-beta http://ns-blocked.example/b a0 => ok none none fault=none intf=mimicry hops=0 resp=6a0e416d4f112402 err=",
    "field-beta http://ns-blocked.example/c a0 => ok none none fault=none intf=mimicry hops=0 resp=6a0e416d4f112402 err=",
    "field-beta http://ns-blocked.example/d a0 => ok none none fault=none intf=none hops=1 resp=7e5fecde1de8376d err=",
    "field-beta http://late.example/ a0 => ok none none fault=none intf=flaky-open hops=0 resp=e86f0e2ea42e2b0a err=",
    "field-beta http://sf-only.example/ a0 => ok none none fault=none intf=none hops=0 resp=1e7aab8c159352de err=",
    "field-beta http://missing.example/ a0 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-beta http://unbound.example/ a0 => connect-failure refused organic fault=none intf=flaky-open hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "lab-control http://open.example/ a0 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control https://open.example/ a0 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://open.example/forbidden-page a0 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://forbidden-news.example/ a0 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control https://forbidden-news.example/ a0 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control http://residual.example/ a0 => ok none none fault=none intf=none hops=0 resp=09dcf9a02d3914cd err=",
    "lab-control http://residual.example/ a0 => ok none none fault=none intf=none hops=0 resp=09dcf9a02d3914cd err=",
    "lab-control http://nx.example/ a0 => ok none none fault=none intf=none hops=0 resp=1dcee19dcb59b81e err=",
    "lab-control http://www.sink.example/ a0 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "lab-control https://tls-blocked.example/ a0 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://tls-blocked.example/ a0 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://void.example/ a0 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "lab-control http://ns-blocked.example/ a0 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/a a0 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/b a0 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/c a0 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/d a0 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://late.example/ a0 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "lab-control http://sf-only.example/ a0 => ok none none fault=none intf=none hops=0 resp=6b733ca3a143ffd3 err=",
    "lab-control http://missing.example/ a0 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "lab-control http://unbound.example/ a0 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha http://open.example/ a1 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a1 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a1 => connect-failure refused fault fault=connect-fail intf=none hops=0 resp=- err=injected transient connect failure",
    "field-alpha http://forbidden-news.example/ a1 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a1 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha http://residual.example/ a1 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a1 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a1 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a1 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a1 => timeout timeout fault fault=timeout intf=none hops=0 resp=- err=injected timeout (response past deadline)",
    "field-alpha http://tls-blocked.example/ a1 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a1 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha http://ns-blocked.example/ a1 => ok none none fault=none intf=none hops=0 resp=2094709d75836709 err=",
    "field-alpha http://ns-blocked.example/a a1 => ok none none fault=none intf=none hops=0 resp=f4cdf7587897bde7 err=",
    "field-alpha http://ns-blocked.example/b a1 => ok none none fault=none intf=none hops=0 resp=7b95ba465fddceba err=",
    "field-alpha http://ns-blocked.example/c a1 => ok none none fault=none intf=none hops=0 resp=51e7de4cb6e126f1 err=",
    "field-alpha http://ns-blocked.example/d a1 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: ns-blocked.example",
    "field-alpha http://late.example/ a1 => ok none none fault=none intf=none hops=0 resp=730549ed5456156a err=",
    "field-alpha http://sf-only.example/ a1 => ok none none fault=none intf=none hops=0 resp=18f3e247605b50c9 err=",
    "field-alpha http://missing.example/ a1 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a1 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-beta http://open.example/ a1 => ok none none fault=none intf=hidden hops=0 resp=ef533f48dd5f2a5e err=",
    "field-beta https://open.example/ a1 => ok none none fault=none intf=hidden hops=0 resp=ef533f48dd5f2a5e err=",
    "field-beta http://open.example/forbidden-page a1 => reset rst-after-request packet-filter fault=none intf=hidden hops=0 resp=- err=connection reset by peer",
    "field-beta http://forbidden-news.example/ a1 => reset rst-after-request packet-filter fault=none intf=hidden hops=0 resp=- err=connection reset by peer",
    "field-beta https://forbidden-news.example/ a1 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://residual.example/ a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://nx.example/ a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://www.sink.example/ a1 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://tls-blocked.example/ a1 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://void.example/ a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a1 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a1 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://late.example/ a1 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://sf-only.example/ a1 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://missing.example/ a1 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://unbound.example/ a1 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-alpha https://tls-blocked.example/ a3 nosni => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha https://open.example/ a3 nosni => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "-- phase hour 35 (now 35)",
    "field-beta http://open.example/ a6 dl2 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta https://open.example/ a6 dl2 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta http://open.example/forbidden-page a6 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://forbidden-news.example/ a6 dl2 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta https://forbidden-news.example/ a6 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://residual.example/ a6 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://residual.example/ a6 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://nx.example/ a6 dl2 => ok none none fault=none intf=none hops=0 resp=9d1f4b35e278e5f3 err=",
    "field-beta http://www.sink.example/ a6 dl2 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "field-beta https://tls-blocked.example/ a6 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://tls-blocked.example/ a6 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://void.example/ a6 dl2 => ok none none fault=none intf=none hops=0 resp=4a90a520b4b82b4f err=",
    "field-beta http://ns-blocked.example/ a6 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/a a6 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=1 resp=9b2e6a77e1058db6 err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/b a6 dl2 => ok none none fault=none intf=mimicry hops=0 resp=d256ef811aa4ebfc err=",
    "field-beta http://ns-blocked.example/c a6 dl2 => ok none none fault=none intf=flaky-open hops=0 resp=97cad6f53ba00e9b err=",
    "field-beta http://ns-blocked.example/d a6 dl2 => ok none none fault=none intf=mimicry hops=0 resp=6a0e416d4f112402 err=",
    "field-beta http://late.example/ a6 dl2 => ok none none fault=none intf=none hops=0 resp=755fb9efa3056423 err=",
    "field-beta http://sf-only.example/ a6 dl2 => ok none none fault=none intf=none hops=0 resp=1e7aab8c159352de err=",
    "field-beta http://missing.example/ a6 dl2 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-beta http://unbound.example/ a6 dl2 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha http://open.example/ a4 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a4 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a4 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://forbidden-news.example/ a4 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a4 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha http://residual.example/ a4 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a4 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a4 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a4 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a4 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://tls-blocked.example/ a4 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a4 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha http://ns-blocked.example/ a4 => ok none none fault=none intf=none hops=1 resp=7ef4ef46eef8853e err=",
    "field-alpha http://ns-blocked.example/a a4 => ok none none fault=none intf=none hops=1 resp=55243dae175eef18 err=",
    "field-alpha http://ns-blocked.example/b a4 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: ns-blocked.example",
    "field-alpha http://ns-blocked.example/c a4 => dns-failure empty-dns fault fault=dns-flap intf=none hops=1 resp=214c734a97d8ba58 err=injected transient DNS flap: 10.0.0.4",
    "field-alpha http://ns-blocked.example/d a4 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://late.example/ a4 => ok none none fault=none intf=none hops=0 resp=730549ed5456156a err=",
    "field-alpha http://sf-only.example/ a4 => ok none none fault=none intf=none hops=0 resp=5e3d12587dbba3bb err=",
    "field-alpha http://missing.example/ a4 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a4 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha-dead http://open.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://open.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://open.example/forbidden-page a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://forbidden-news.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://forbidden-news.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://residual.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://residual.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://nx.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://www.sink.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://tls-blocked.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://tls-blocked.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://void.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/a a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/b a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/c a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/d a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://late.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://sf-only.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://missing.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://unbound.example/ a4 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-beta http://open.example/ a4 => ok none none fault=none intf=tarpit hops=0 resp=0e356f5d59d1246f err=",
    "field-beta https://open.example/ a4 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta http://open.example/forbidden-page a4 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta http://forbidden-news.example/ a4 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta https://forbidden-news.example/ a4 => ok none none fault=none intf=none hops=0 resp=f443695a6bbb8fcb err=",
    "field-beta http://residual.example/ a4 => ok none none fault=none intf=none hops=0 resp=b622a0404b5db870 err=",
    "field-beta http://residual.example/ a4 => ok none none fault=none intf=none hops=0 resp=b622a0404b5db870 err=",
    "field-beta http://nx.example/ a4 => ok none none fault=none intf=none hops=0 resp=9d1f4b35e278e5f3 err=",
    "field-beta http://www.sink.example/ a4 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "field-beta https://tls-blocked.example/ a4 => ok none none fault=none intf=flaky-open hops=0 resp=52e0873342446fec err=",
    "field-beta http://tls-blocked.example/ a4 => ok none none fault=none intf=flaky-open hops=0 resp=52e0873342446fec err=",
    "field-beta http://void.example/ a4 => ok none none fault=none intf=hidden hops=0 resp=4a1c19180095781e err=",
    "field-beta http://ns-blocked.example/ a4 => ok none none fault=none intf=hidden hops=0 resp=97cad6f53ba00e9b err=",
    "field-beta http://ns-blocked.example/a a4 => ok none none fault=none intf=tarpit hops=0 resp=97cad6f53ba00e9b err=",
    "field-beta http://ns-blocked.example/b a4 => ok none none fault=none intf=tarpit hops=1 resp=48725a12be57be9d err=",
    "field-beta http://ns-blocked.example/c a4 => ok none none fault=none intf=tarpit hops=1 resp=0800bbdb26d0d82f err=",
    "field-beta http://ns-blocked.example/d a4 => ok none none fault=none intf=flaky-open hops=0 resp=97cad6f53ba00e9b err=",
    "field-beta http://late.example/ a4 => ok none none fault=none intf=mimicry hops=0 resp=6a0e416d4f112402 err=",
    "field-beta http://sf-only.example/ a4 => ok none none fault=none intf=flaky-open hops=0 resp=6b733ca3a143ffd3 err=",
    "field-beta http://missing.example/ a4 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-beta http://unbound.example/ a4 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "lab-control http://open.example/ a4 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control https://open.example/ a4 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://open.example/forbidden-page a4 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://forbidden-news.example/ a4 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control https://forbidden-news.example/ a4 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control http://residual.example/ a4 => ok none none fault=none intf=none hops=0 resp=09dcf9a02d3914cd err=",
    "lab-control http://residual.example/ a4 => ok none none fault=none intf=none hops=0 resp=09dcf9a02d3914cd err=",
    "lab-control http://nx.example/ a4 => ok none none fault=none intf=none hops=0 resp=1dcee19dcb59b81e err=",
    "lab-control http://www.sink.example/ a4 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: www.sink.example",
    "lab-control https://tls-blocked.example/ a4 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://tls-blocked.example/ a4 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://void.example/ a4 => ok none none fault=none intf=none hops=0 resp=4a1c19180095781e err=",
    "lab-control http://ns-blocked.example/ a4 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/a a4 => timeout timeout fault fault=timeout intf=none hops=0 resp=- err=injected timeout (response past deadline)",
    "lab-control http://ns-blocked.example/b a4 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: ns-blocked.example",
    "lab-control http://ns-blocked.example/c a4 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/d a4 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://late.example/ a4 => ok none none fault=none intf=none hops=0 resp=e86f0e2ea42e2b0a err=",
    "lab-control http://sf-only.example/ a4 => ok none none fault=none intf=none hops=0 resp=6b733ca3a143ffd3 err=",
    "lab-control http://missing.example/ a4 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "lab-control http://unbound.example/ a4 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha http://open.example/ a5 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a5 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a5 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: open.example",
    "field-alpha http://forbidden-news.example/ a5 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a5 => connect-failure refused fault fault=connect-fail intf=none hops=0 resp=- err=injected transient connect failure",
    "field-alpha http://residual.example/ a5 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: residual.example",
    "field-alpha http://residual.example/ a5 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: residual.example",
    "field-alpha http://nx.example/ a5 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a5 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a5 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://tls-blocked.example/ a5 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a5 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "field-alpha http://ns-blocked.example/ a5 => timeout timeout fault fault=loss intf=none hops=1 resp=1cba428763743de0 err=injected transient loss (flow blackholed)",
    "field-alpha http://ns-blocked.example/a a5 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/b a5 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/c a5 => ok none none fault=none intf=none hops=1 resp=82745c6ce13ff3f8 err=",
    "field-alpha http://ns-blocked.example/d a5 => connect-failure refused fault fault=connect-fail intf=none hops=0 resp=- err=injected transient connect failure",
    "field-alpha http://late.example/ a5 => connect-failure refused fault fault=connect-fail intf=none hops=0 resp=- err=injected transient connect failure",
    "field-alpha http://sf-only.example/ a5 => ok none none fault=none intf=none hops=0 resp=5e3d12587dbba3bb err=",
    "field-alpha http://missing.example/ a5 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a5 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: unbound.example",
    "field-beta http://open.example/ a5 => ok none none fault=none intf=flaky-open hops=0 resp=ef533f48dd5f2a5e err=",
    "field-beta https://open.example/ a5 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta http://open.example/forbidden-page a5 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta http://forbidden-news.example/ a5 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta https://forbidden-news.example/ a5 => ok none none fault=none intf=none hops=0 resp=f443695a6bbb8fcb err=",
    "field-beta http://residual.example/ a5 => ok none none fault=none intf=hidden hops=0 resp=09dcf9a02d3914cd err=",
    "field-beta http://residual.example/ a5 => ok none none fault=none intf=hidden hops=0 resp=09dcf9a02d3914cd err=",
    "field-beta http://nx.example/ a5 => ok none none fault=none intf=hidden hops=0 resp=1dcee19dcb59b81e err=",
    "field-beta http://www.sink.example/ a5 => dns-failure empty-dns organic fault=none intf=tarpit hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "field-beta https://tls-blocked.example/ a5 => ok none none fault=none intf=none hops=0 resp=f49ed9bb9b329ac5 err=",
    "field-beta http://tls-blocked.example/ a5 => ok none none fault=none intf=tarpit hops=0 resp=f49ed9bb9b329ac5 err=",
    "field-beta http://void.example/ a5 => ok none none fault=none intf=flaky-open hops=0 resp=4a1c19180095781e err=",
    "field-beta http://ns-blocked.example/ a5 => ok none none fault=none intf=mimicry hops=0 resp=6a0e416d4f112402 err=",
    "field-beta http://ns-blocked.example/a a5 => ok none none fault=none intf=none hops=1 resp=1367cb52b12088b3 err=",
    "field-beta http://ns-blocked.example/b a5 => ok none none fault=none intf=mimicry hops=0 resp=a7aaa513ca4c2465 err=",
    "field-beta http://ns-blocked.example/c a5 => ok none none fault=none intf=mimicry hops=0 resp=d256ef811aa4ebfc err=",
    "field-beta http://ns-blocked.example/d a5 => ok none none fault=none intf=none hops=1 resp=7e5fecde1de8376d err=",
    "field-beta http://late.example/ a5 => ok none none fault=none intf=none hops=0 resp=755fb9efa3056423 err=",
    "field-beta http://sf-only.example/ a5 => ok none none fault=none intf=flaky-open hops=0 resp=6b733ca3a143ffd3 err=",
    "field-beta http://missing.example/ a5 => dns-failure empty-dns organic fault=none intf=flaky-open hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-beta http://unbound.example/ a5 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha https://tls-blocked.example/ a7 nosni => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha https://open.example/ a7 nosni => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "-- phase hour 65 (now 113)",
    "field-beta http://open.example/ a10 dl2 => ok none none fault=none intf=flaky-open hops=0 resp=ef533f48dd5f2a5e err=",
    "field-beta https://open.example/ a10 dl2 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta http://open.example/forbidden-page a10 dl2 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta http://forbidden-news.example/ a10 dl2 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta https://forbidden-news.example/ a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://residual.example/ a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://residual.example/ a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://nx.example/ a10 dl2 => ok none none fault=none intf=none hops=0 resp=9d1f4b35e278e5f3 err=",
    "field-beta http://www.sink.example/ a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta https://tls-blocked.example/ a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://tls-blocked.example/ a10 dl2 => ok none none fault=none intf=none hops=0 resp=f49ed9bb9b329ac5 err=",
    "field-beta http://void.example/ a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/ a10 dl2 => ok none none fault=none intf=flaky-open hops=1 resp=20c32788bf66660e err=",
    "field-beta http://ns-blocked.example/a a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/b a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=1 resp=6819714f00417bf1 err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/c a10 dl2 => timeout slow-drip interference fault=none intf=tarpit hops=0 resp=- err=slow-drip response cancelled at deadline",
    "field-beta http://ns-blocked.example/d a10 dl2 => ok none none fault=none intf=mimicry hops=0 resp=6a0e416d4f112402 err=",
    "field-beta http://late.example/ a10 dl2 => ok none none fault=none intf=mimicry hops=0 resp=d256ef811aa4ebfc err=",
    "field-beta http://sf-only.example/ a10 dl2 => ok none none fault=none intf=none hops=0 resp=1e7aab8c159352de err=",
    "field-beta http://missing.example/ a10 dl2 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-beta http://unbound.example/ a10 dl2 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha http://open.example/ a8 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a8 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a8 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://forbidden-news.example/ a8 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a8 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha http://residual.example/ a8 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a8 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a8 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a8 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a8 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://tls-blocked.example/ a8 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a8 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha http://ns-blocked.example/ a8 => ok none none fault=none intf=none hops=1 resp=7ef4ef46eef8853e err=",
    "field-alpha http://ns-blocked.example/a a8 => ok none none fault=none intf=none hops=1 resp=55243dae175eef18 err=",
    "field-alpha http://ns-blocked.example/b a8 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/c a8 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/d a8 => connect-failure refused fault fault=connect-fail intf=none hops=1 resp=ee27ea6468d97003 err=injected transient connect failure",
    "field-alpha http://late.example/ a8 => ok none none fault=none intf=none hops=1 resp=64e7b3fea88ad143 err=",
    "field-alpha http://sf-only.example/ a8 => ok none none fault=none intf=none hops=0 resp=5e3d12587dbba3bb err=",
    "field-alpha http://missing.example/ a8 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a8 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha-dead http://open.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://open.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://open.example/forbidden-page a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://forbidden-news.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://forbidden-news.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://residual.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://residual.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://nx.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://www.sink.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://tls-blocked.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://tls-blocked.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://void.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/a a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/b a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/c a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/d a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://late.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://sf-only.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://missing.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://unbound.example/ a8 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-beta http://open.example/ a8 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta https://open.example/ a8 => ok none none fault=none intf=none hops=0 resp=0e356f5d59d1246f err=",
    "field-beta http://open.example/forbidden-page a8 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta http://forbidden-news.example/ a8 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-beta https://forbidden-news.example/ a8 => ok none none fault=none intf=flaky-open hops=0 resp=4c4cc404121d0f92 err=",
    "field-beta http://residual.example/ a8 => ok none none fault=none intf=hidden hops=0 resp=09dcf9a02d3914cd err=",
    "field-beta http://residual.example/ a8 => ok none none fault=none intf=hidden hops=0 resp=09dcf9a02d3914cd err=",
    "field-beta http://nx.example/ a8 => ok none none fault=none intf=hidden hops=0 resp=1dcee19dcb59b81e err=",
    "field-beta http://www.sink.example/ a8 => dns-failure empty-dns organic fault=none intf=hidden hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "field-beta https://tls-blocked.example/ a8 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a8 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://void.example/ a8 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a8 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a8 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a8 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a8 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a8 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://late.example/ a8 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://sf-only.example/ a8 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://missing.example/ a8 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://unbound.example/ a8 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "lab-control http://open.example/ a8 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control https://open.example/ a8 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://open.example/forbidden-page a8 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://forbidden-news.example/ a8 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control https://forbidden-news.example/ a8 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control http://residual.example/ a8 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: residual.example",
    "lab-control http://residual.example/ a8 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: residual.example",
    "lab-control http://nx.example/ a8 => ok none none fault=none intf=none hops=0 resp=1dcee19dcb59b81e err=",
    "lab-control http://www.sink.example/ a8 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "lab-control https://tls-blocked.example/ a8 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://tls-blocked.example/ a8 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://void.example/ a8 => ok none none fault=none intf=none hops=0 resp=4a1c19180095781e err=",
    "lab-control http://ns-blocked.example/ a8 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/a a8 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/b a8 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/c a8 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/d a8 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://late.example/ a8 => ok none none fault=none intf=none hops=0 resp=e86f0e2ea42e2b0a err=",
    "lab-control http://sf-only.example/ a8 => ok none none fault=none intf=none hops=0 resp=6b733ca3a143ffd3 err=",
    "lab-control http://missing.example/ a8 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "lab-control http://unbound.example/ a8 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha http://open.example/ a9 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a9 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a9 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://forbidden-news.example/ a9 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a9 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha http://residual.example/ a9 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a9 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a9 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a9 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a9 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://tls-blocked.example/ a9 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a9 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha http://ns-blocked.example/ a9 => ok none none fault=none intf=none hops=1 resp=7ef4ef46eef8853e err=",
    "field-alpha http://ns-blocked.example/a a9 => ok none none fault=none intf=none hops=1 resp=55243dae175eef18 err=",
    "field-alpha http://ns-blocked.example/b a9 => ok none none fault=none intf=none hops=1 resp=2da43b5a90abe772 err=",
    "field-alpha http://ns-blocked.example/c a9 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/d a9 => ok none none fault=none intf=none hops=1 resp=107869f8353d34c6 err=",
    "field-alpha http://late.example/ a9 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "field-alpha http://sf-only.example/ a9 => ok none none fault=none intf=none hops=0 resp=5e3d12587dbba3bb err=",
    "field-alpha http://missing.example/ a9 => connect-failure refused fault fault=connect-fail intf=none hops=0 resp=- err=injected transient connect failure",
    "field-alpha http://unbound.example/ a9 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-beta http://open.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://open.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://open.example/forbidden-page a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://forbidden-news.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://forbidden-news.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://nx.example/ a9 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://www.sink.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://tls-blocked.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://void.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a9 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a9 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://late.example/ a9 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://sf-only.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://missing.example/ a9 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://unbound.example/ a9 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-alpha https://tls-blocked.example/ a11 nosni => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha https://open.example/ a11 nosni => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "-- phase hour 95 (now 138)",
    "field-beta http://open.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://open.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://open.example/forbidden-page a14 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://forbidden-news.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://forbidden-news.example/ a14 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://residual.example/ a14 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://residual.example/ a14 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://nx.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://www.sink.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://tls-blocked.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://void.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a14 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a14 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://late.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://sf-only.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://missing.example/ a14 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://unbound.example/ a14 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-alpha http://open.example/ a12 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a12 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a12 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://forbidden-news.example/ a12 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a12 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha http://residual.example/ a12 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a12 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a12 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a12 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a12 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://tls-blocked.example/ a12 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a12 => timeout timeout fault fault=timeout intf=none hops=0 resp=- err=injected timeout (response past deadline)",
    "field-alpha http://ns-blocked.example/ a12 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/a a12 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/b a12 => ok none none fault=none intf=none hops=1 resp=2da43b5a90abe772 err=",
    "field-alpha http://ns-blocked.example/c a12 => ok none none fault=none intf=none hops=1 resp=82745c6ce13ff3f8 err=",
    "field-alpha http://ns-blocked.example/d a12 => ok none none fault=none intf=none hops=1 resp=107869f8353d34c6 err=",
    "field-alpha http://late.example/ a12 => ok none none fault=none intf=none hops=1 resp=64e7b3fea88ad143 err=",
    "field-alpha http://sf-only.example/ a12 => ok none none fault=none intf=none hops=0 resp=5e3d12587dbba3bb err=",
    "field-alpha http://missing.example/ a12 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a12 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha-dead http://open.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://open.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://open.example/forbidden-page a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://forbidden-news.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://forbidden-news.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://residual.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://residual.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://nx.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://www.sink.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://tls-blocked.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://tls-blocked.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://void.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/a a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/b a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/c a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/d a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://late.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://sf-only.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://missing.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://unbound.example/ a12 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-beta http://open.example/ a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://open.example/ a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://open.example/forbidden-page a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://forbidden-news.example/ a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta https://forbidden-news.example/ a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://residual.example/ a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://residual.example/ a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://nx.example/ a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://www.sink.example/ a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://tls-blocked.example/ a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://void.example/ a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://late.example/ a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://sf-only.example/ a12 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://missing.example/ a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://unbound.example/ a12 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "lab-control http://open.example/ a12 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control https://open.example/ a12 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://open.example/forbidden-page a12 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://forbidden-news.example/ a12 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control https://forbidden-news.example/ a12 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control http://residual.example/ a12 => ok none none fault=none intf=none hops=0 resp=09dcf9a02d3914cd err=",
    "lab-control http://residual.example/ a12 => ok none none fault=none intf=none hops=0 resp=09dcf9a02d3914cd err=",
    "lab-control http://nx.example/ a12 => ok none none fault=none intf=none hops=0 resp=1dcee19dcb59b81e err=",
    "lab-control http://www.sink.example/ a12 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "lab-control https://tls-blocked.example/ a12 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://tls-blocked.example/ a12 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://void.example/ a12 => ok none none fault=none intf=none hops=0 resp=4a1c19180095781e err=",
    "lab-control http://ns-blocked.example/ a12 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/a a12 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/b a12 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/c a12 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/d a12 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "lab-control http://late.example/ a12 => ok none none fault=none intf=none hops=0 resp=e86f0e2ea42e2b0a err=",
    "lab-control http://sf-only.example/ a12 => ok none none fault=none intf=none hops=0 resp=6b733ca3a143ffd3 err=",
    "lab-control http://missing.example/ a12 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "lab-control http://unbound.example/ a12 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha http://open.example/ a13 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a13 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a13 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://forbidden-news.example/ a13 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a13 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "field-alpha http://residual.example/ a13 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a13 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a13 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "field-alpha http://www.sink.example/ a13 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a13 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://tls-blocked.example/ a13 => dns-failure empty-dns fault fault=dns-flap intf=none hops=0 resp=- err=injected transient DNS flap: tls-blocked.example",
    "field-alpha http://void.example/ a13 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha http://ns-blocked.example/ a13 => ok none none fault=none intf=none hops=1 resp=7ef4ef46eef8853e err=",
    "field-alpha http://ns-blocked.example/a a13 => ok none none fault=none intf=none hops=1 resp=55243dae175eef18 err=",
    "field-alpha http://ns-blocked.example/b a13 => dns-failure empty-dns fault fault=dns-flap intf=none hops=1 resp=9f3ec13e8bf43fd1 err=injected transient DNS flap: 10.0.0.4",
    "field-alpha http://ns-blocked.example/c a13 => ok none none fault=none intf=none hops=1 resp=82745c6ce13ff3f8 err=",
    "field-alpha http://ns-blocked.example/d a13 => ok none none fault=none intf=none hops=1 resp=107869f8353d34c6 err=",
    "field-alpha http://late.example/ a13 => ok none none fault=none intf=none hops=0 resp=730549ed5456156a err=",
    "field-alpha http://sf-only.example/ a13 => ok none none fault=none intf=none hops=0 resp=5e3d12587dbba3bb err=",
    "field-alpha http://missing.example/ a13 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a13 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-beta http://open.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://open.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://open.example/forbidden-page a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://forbidden-news.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://forbidden-news.example/ a13 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://residual.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://nx.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://www.sink.example/ a13 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta https://tls-blocked.example/ a13 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://void.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a13 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a13 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://late.example/ a13 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://sf-only.example/ a13 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://missing.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://unbound.example/ a13 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-alpha https://tls-blocked.example/ a15 nosni => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha https://open.example/ a15 nosni => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "-- phase hour 130 (now 138)",
    "field-beta http://open.example/ a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta https://open.example/ a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://open.example/forbidden-page a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://forbidden-news.example/ a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://forbidden-news.example/ a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://nx.example/ a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://www.sink.example/ a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://tls-blocked.example/ a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://void.example/ a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://late.example/ a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://sf-only.example/ a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://missing.example/ a18 dl2 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://unbound.example/ a18 dl2 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-alpha http://open.example/ a16 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a16 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a16 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://forbidden-news.example/ a16 => timeout timeout fault fault=timeout intf=none hops=0 resp=- err=injected timeout (response past deadline)",
    "field-alpha https://forbidden-news.example/ a16 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha http://residual.example/ a16 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a16 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a16 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a16 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a16 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://tls-blocked.example/ a16 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a16 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha http://ns-blocked.example/ a16 => timeout timeout fault fault=loss intf=none hops=1 resp=1cba428763743de0 err=injected transient loss (flow blackholed)",
    "field-alpha http://ns-blocked.example/a a16 => ok none none fault=none intf=none hops=1 resp=55243dae175eef18 err=",
    "field-alpha http://ns-blocked.example/b a16 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/c a16 => connect-failure refused fault fault=connect-fail intf=none hops=0 resp=- err=injected transient connect failure",
    "field-alpha http://ns-blocked.example/d a16 => ok none none fault=none intf=none hops=1 resp=107869f8353d34c6 err=",
    "field-alpha http://late.example/ a16 => ok none none fault=none intf=none hops=1 resp=64e7b3fea88ad143 err=",
    "field-alpha http://sf-only.example/ a16 => ok none none fault=none intf=none hops=0 resp=5e3d12587dbba3bb err=",
    "field-alpha http://missing.example/ a16 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a16 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha-dead http://open.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://open.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://open.example/forbidden-page a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://forbidden-news.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://forbidden-news.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://residual.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://residual.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://nx.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://www.sink.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead https://tls-blocked.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://tls-blocked.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://void.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/a a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/b a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/c a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://ns-blocked.example/d a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://late.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://sf-only.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://missing.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-alpha-dead http://unbound.example/ a16 => timeout timeout outage fault=outage intf=none hops=0 resp=- err=vantage offline: field-alpha-dead permanently dead since hour 30",
    "field-beta http://open.example/ a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta https://open.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://open.example/forbidden-page a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://forbidden-news.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://forbidden-news.example/ a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://residual.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://nx.example/ a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://www.sink.example/ a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta https://tls-blocked.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://void.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://late.example/ a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://sf-only.example/ a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://missing.example/ a16 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://unbound.example/ a16 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "lab-control http://open.example/ a16 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control https://open.example/ a16 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://open.example/forbidden-page a16 => ok none none fault=none intf=none hops=0 resp=ef533f48dd5f2a5e err=",
    "lab-control http://forbidden-news.example/ a16 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control https://forbidden-news.example/ a16 => ok none none fault=none intf=none hops=0 resp=4c4cc404121d0f92 err=",
    "lab-control http://residual.example/ a16 => ok none none fault=none intf=none hops=0 resp=09dcf9a02d3914cd err=",
    "lab-control http://residual.example/ a16 => ok none none fault=none intf=none hops=0 resp=09dcf9a02d3914cd err=",
    "lab-control http://nx.example/ a16 => ok none none fault=none intf=none hops=0 resp=1dcee19dcb59b81e err=",
    "lab-control http://www.sink.example/ a16 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: www.sink.example",
    "lab-control https://tls-blocked.example/ a16 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://tls-blocked.example/ a16 => ok none none fault=none intf=none hops=0 resp=52e0873342446fec err=",
    "lab-control http://void.example/ a16 => ok none none fault=none intf=none hops=0 resp=4a1c19180095781e err=",
    "lab-control http://ns-blocked.example/ a16 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/a a16 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/b a16 => timeout timeout fault fault=timeout intf=none hops=0 resp=- err=injected timeout (response past deadline)",
    "lab-control http://ns-blocked.example/c a16 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://ns-blocked.example/d a16 => ok none none fault=none intf=none hops=0 resp=97cad6f53ba00e9b err=",
    "lab-control http://late.example/ a16 => ok none none fault=none intf=none hops=0 resp=e86f0e2ea42e2b0a err=",
    "lab-control http://sf-only.example/ a16 => ok none none fault=none intf=none hops=0 resp=6b733ca3a143ffd3 err=",
    "lab-control http://missing.example/ a16 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "lab-control http://unbound.example/ a16 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-alpha http://open.example/ a17 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha https://open.example/ a17 => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    "field-alpha http://open.example/forbidden-page a17 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://forbidden-news.example/ a17 => reset rst-after-request packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha https://forbidden-news.example/ a17 => ok none none fault=none intf=none hops=0 resp=4731869aa1c5eec2 err=",
    "field-alpha http://residual.example/ a17 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://residual.example/ a17 => reset rst-before-banner packet-filter fault=none intf=none hops=0 resp=- err=connection reset by peer",
    "field-alpha http://nx.example/ a17 => dns-failure empty-dns packet-filter fault=none intf=none hops=0 resp=- err=NXDOMAIN: nx.example (forged empty answer)",
    "field-alpha http://www.sink.example/ a17 => ok none none fault=none intf=none hops=0 resp=155bccd0376b358c err=",
    "field-alpha https://tls-blocked.example/ a17 => timeout timeout fault fault=loss intf=none hops=0 resp=- err=injected transient loss (flow blackholed)",
    "field-alpha http://tls-blocked.example/ a17 => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha http://void.example/ a17 => timeout timeout packet-filter fault=none intf=none hops=0 resp=- err=connection timed out",
    "field-alpha http://ns-blocked.example/ a17 => ok none none fault=none intf=none hops=1 resp=7ef4ef46eef8853e err=",
    "field-alpha http://ns-blocked.example/a a17 => connect-failure refused fault fault=connect-fail intf=none hops=1 resp=d253ba676cb85196 err=injected transient connect failure",
    "field-alpha http://ns-blocked.example/b a17 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/c a17 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://ns-blocked.example/d a17 => ok none none fault=none intf=none hops=0 resp=b0764f6ffdb55b0b err=",
    "field-alpha http://late.example/ a17 => timeout timeout fault fault=loss intf=none hops=1 resp=9421e2883f439517 err=injected transient loss (flow blackholed)",
    "field-alpha http://sf-only.example/ a17 => ok none none fault=none intf=none hops=0 resp=5e3d12587dbba3bb err=",
    "field-alpha http://missing.example/ a17 => dns-failure empty-dns organic fault=none intf=none hops=0 resp=- err=NXDOMAIN: missing.example",
    "field-alpha http://unbound.example/ a17 => connect-failure refused organic fault=none intf=none hops=0 resp=- err=connection refused: 20.0.0.11:80",
    "field-beta http://open.example/ a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta https://open.example/ a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://open.example/forbidden-page a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://forbidden-news.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta https://forbidden-news.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://residual.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://nx.example/ a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://www.sink.example/ a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta https://tls-blocked.example/ a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://tls-blocked.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://void.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/a a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/b a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://ns-blocked.example/c a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://ns-blocked.example/d a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://late.example/ a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://sf-only.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-beta http://missing.example/ a17 => connect-failure refused interference fault=none intf=lockout hops=0 resp=- err=connection refused (rate-limit lockout)",
    "field-beta http://unbound.example/ a17 => timeout timeout interference fault=none intf=lockout hops=0 resp=- err=connection timed out (rate-limit lockout)",
    "field-alpha https://tls-blocked.example/ a19 nosni => ok none none fault=none intf=none hops=0 resp=61d66ca0d124604c err=",
    "field-alpha https://open.example/ a19 nosni => ok none none fault=none intf=none hops=0 resp=61b0a786ecc8393e err=",
    nullptr,
};
// clang-format on

TEST(FetchPathTranscript, CombinedStagesMatchGolden) {
  const std::vector<std::string> actual = runScript();
  std::vector<std::string> golden;
  for (const char* const* line = kGolden; *line != nullptr; ++line)
    golden.emplace_back(*line);

  std::size_t firstDiff = 0;
  while (firstDiff < actual.size() && firstDiff < golden.size() &&
         actual[firstDiff] == golden[firstDiff])
    ++firstDiff;
  if (firstDiff == actual.size() && firstDiff == golden.size()) return;

  std::string replacement;
  for (const auto& line : actual) replacement += "    \"" + line + "\",\n";
  ADD_FAILURE() << "transcript diverges at row " << firstDiff << "\n  golden: "
                << (firstDiff < golden.size() ? golden[firstDiff] : "<end>")
                << "\n  actual: "
                << (firstDiff < actual.size() ? actual[firstDiff] : "<end>")
                << "\nfull actual transcript:\n"
                << replacement;
}

TEST(FetchPathTranscript, ReplayIsDeterministic) {
  EXPECT_EQ(runScript(), runScript());
}

}  // namespace
