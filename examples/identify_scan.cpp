// Walkthrough of the §3 identification pipeline with verbose evidence:
// banner crawl -> Shodan-style keyword search -> WhatWeb-style validation ->
// MaxMind/whois mapping. Prints what each stage saw, including the decoy
// candidates that validation rejects.
#include <cstdio>
#include <set>

#include "core/identifier.h"
#include "net/cctld.h"
#include "scenarios/paper_world.h"

int main() {
  using namespace urlf;

  scenarios::PaperWorld paper;
  auto& world = paper.world();

  // The scanner's view of the world: its own (imperfect) geolocation.
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();

  std::printf("crawling externally visible surfaces...\n");
  const auto index = scan::crawlStream(world, geo);
  std::printf("  %zu banners indexed\n\n", index.docCount());

  const auto engine = fingerprint::Engine::withBuiltinSignatures();
  core::Identifier identifier(world, index, engine, geo, whois);

  for (const auto product : filters::allProducts()) {
    std::printf("---- %s ----\n",
                std::string(filters::toString(product)).c_str());

    std::printf("keywords:");
    for (const auto& keyword : core::Identifier::shodanKeywords(product))
      std::printf(" \"%s\"", keyword.c_str());
    std::printf("\n");

    const auto candidates = identifier.locateCandidateDocs(product);
    std::printf("step 1 (locate): %zu candidate banners\n", candidates.size());

    const auto installations = identifier.identify(product);
    std::printf("step 2+3 (validate, map): %zu validated installations\n",
                installations.size());

    std::set<std::uint32_t> validatedIps;
    for (const auto& inst : installations) {
      validatedIps.insert(inst.ip.value());
      const auto country = net::countryByAlpha2(inst.countryAlpha2);
      std::printf("  %s:%u  %s  %s  certainty %.2f\n",
                  inst.ip.toString().c_str(), inst.port,
                  country ? std::string(country->name).c_str()
                          : inst.countryAlpha2.c_str(),
                  inst.asn ? ("AS" + std::to_string(inst.asn->asn) + " " +
                              inst.asn->description)
                                 .c_str()
                           : "AS?",
                  inst.certainty);
      for (const auto& evidence : inst.evidence)
        std::printf("      evidence: %s\n", evidence.c_str());
    }

    // Candidates that did NOT validate: the keyword bait.
    int rejected = 0;
    for (const auto doc : candidates)
      if (!validatedIps.contains(index.surface(doc).ip.value())) ++rejected;
    if (rejected > 0)
      std::printf("  (%d keyword candidate(s) rejected by validation)\n",
                  rejected);
    std::printf("\n");
  }
  return 0;
}
