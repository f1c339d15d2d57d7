// Reproduces Figure 1 ("Locations of URL filter installations"): runs the
// full §3 identification pipeline (banner scan -> keyword search ->
// fingerprint validation -> geo/ASN mapping) over the simulated Internet
// and prints, per product, the countries and networks where validated
// installations were found.
#include <cstdio>
#include <map>
#include <set>

#include "core/identifier.h"
#include "net/cctld.h"
#include "report/table.h"
#include "scenarios/paper_world.h"

int main() {
  using namespace urlf;

  scenarios::PaperWorld paper;
  auto& world = paper.world();

  const auto geo = world.buildGeoDatabase(paper.options().geoErrorRate);
  const auto whois = world.buildAsnDatabase();

  const auto index = scan::crawlStream(world, geo);

  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(), geo,
                              whois);
  const auto all = identifier.identifyAll();
  const auto countries = core::Identifier::countriesByProduct(all);

  std::printf("%s", report::sectionBanner(
                        "Figure 1: Locations of URL filter installations")
                        .c_str());

  report::TextTable summary({"Product", "Installations", "Countries"});
  for (const auto product : filters::allProducts()) {
    std::string names;
    for (const auto& alpha2 : countries.at(product)) {
      if (!names.empty()) names += ", ";
      const auto country = net::countryByAlpha2(alpha2);
      names += country ? std::string(country->name) : alpha2;
    }
    summary.addRow({std::string(filters::toString(product)),
                    std::to_string(all.at(product).size()), names});
  }
  std::printf("%s", summary.render().c_str());

  std::printf("%s",
              report::sectionBanner("Validated installations (detail)").c_str());
  report::TextTable detail({"Product", "IP:port", "Country", "AS", "Network"});
  for (const auto product : filters::allProducts()) {
    for (const auto& inst : all.at(product)) {
      detail.addRow({std::string(filters::toString(product)),
                     inst.ip.toString() + ":" + std::to_string(inst.port),
                     inst.countryAlpha2,
                     inst.asn ? "AS" + std::to_string(inst.asn->asn) : "?",
                     inst.asn ? inst.asn->description : "unknown"});
    }
  }
  std::printf("%s", detail.render().c_str());
  return 0;
}
