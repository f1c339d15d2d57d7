// Why the paper targets block-page products (§4.1): censorship by TCP
// reset, blackholing, or DNS tampering is visible to the measurement client
// but cannot be attributed to any vendor. This example builds one ISP with
// all three mechanisms plus a SmartFilter, and shows how each looks to the
// ONI-style client.
#include <cstdio>

#include "filters/smartfilter.h"
#include "measure/client.h"
#include "simnet/hosting.h"
#include "simnet/origin_server.h"

int main() {
  using namespace urlf;

  simnet::World world(1313);
  world.createAs(100, "MIXED-AS", "Mixed-censorship ISP", "IR",
                 {net::IpPrefix::parse("10.0.0.0/16").value()});
  world.createAs(200, "HOST-AS", "Hosting", "US",
                 {net::IpPrefix::parse("20.0.0.0/16").value()});
  auto& isp = world.createIsp("Mixed-censorship ISP", "IR", {100});
  auto& field = world.createVantage("field", "IR", &isp);
  auto& lab = world.createVantage("lab", "CA", nullptr);
  simnet::HostingProvider hosting(world, 200);

  // Mechanism 1: a URL filter with a block page.
  filters::Vendor vendor(filters::ProductKind::kSmartFilter, world);
  filters::FilterPolicy policy;
  policy.blockedCategories = {1};  // Pornography
  auto& smartFilter = world.makeMiddlebox<filters::SmartFilterDeployment>(
      "SF", vendor, policy);
  smartFilter.installExternalSurfaces(world, 100);
  isp.attachMiddlebox(smartFilter);

  // Mechanism 2: keyword RST injection on the wire.
  isp.attachPacketFilter(world.makePacketFilter<simnet::RstInjector>(
      "keyword-firewall", std::vector<std::string>{"opposition"}));

  // Mechanism 3: a resolver poisoner forging answers into a blackhole.
  auto& poisoner = world.makePacketFilter<simnet::DnsPoisoner>(
      "resolver-poisoner", simnet::DnsTamper::Kind::kForged,
      net::Ipv4Addr(10, 0, 99, 99));
  poisoner.poisonZone("bannedforum.org");
  isp.attachPacketFilter(poisoner);

  const auto blockPageSite =
      hosting.createFreshDomain(simnet::ContentProfile::kAdultImage);
  vendor.masterDb().addHost(blockPageSite.hostname, 1);
  const auto rstSite = hosting.createDomain("oppositionvoice.org",
                                            simnet::ContentProfile::kNews);
  const auto dnsSite =
      hosting.createDomain("bannedforum.org", simnet::ContentProfile::kNews);
  const auto openSite =
      hosting.createFreshDomain(simnet::ContentProfile::kBenign);

  measure::Client client(world, field, lab);
  struct Case {
    const char* label;
    std::string url;
  };
  const Case cases[] = {
      {"URL filter (block page)", "http://" + blockPageSite.hostname + "/"},
      {"keyword RST injection", "http://oppositionvoice.org/"},
      {"DNS blackholing", "http://bannedforum.org/"},
      {"uncensored control", "http://" + openSite.hostname + "/"},
  };

  std::printf("%-28s %-14s %s\n", "mechanism", "verdict", "attribution");
  std::printf("%-28s %-14s %s\n", "---------", "-------", "-----------");
  for (const auto& c : cases) {
    const auto result = client.testUrl(c.url);
    std::printf("%-28s %-14s %s\n", c.label,
                std::string(measure::toString(result.verdict)).c_str(),
                result.blockPage
                    ? std::string(filters::toString(result.blockPage->product))
                          .c_str()
                    : "(none)");
  }

  std::printf(
      "\nOnly the block-page mechanism yields a product attribution — the\n"
      "confirmation methodology (sec 4) is built on exactly that property.\n");
  return 0;
}
