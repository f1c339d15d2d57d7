#ifndef URLF_CORE_PROFILER_H
#define URLF_CORE_PROFILER_H

#include <optional>
#include <string>
#include <vector>

#include "core/characterizer.h"
#include "core/confirmer.h"
#include "core/identifier.h"
#include "core/proxy_detect.h"
#include "core/scout.h"
#include "measure/testlist.h"
#include "report/json.h"
#include "scan/banner_index.h"

namespace urlf::core {

/// Everything the methodology can learn about one network, gathered in one
/// pass — the shape of an ONI country-profile section: which installations
/// are visible in the network's country, whether the path is transparently
/// proxied, which categories are enforced per product, and what content is
/// censored.
struct NetworkProfile {
  std::string ispName;
  std::string countryAlpha2;
  /// Validated installations geolocated to this country (any product).
  std::vector<Installation> installationsInCountry;
  /// Netalyzr-style path evidence (empty when no echo origin was given).
  std::optional<ProxyEvidence> proxyEvidence;
  /// Per product: the enforced-category scouting results.
  std::map<filters::ProductKind, std::vector<CategoryUse>> categoryUse;
  /// §5 content characterization.
  CharacterizationResult characterization;

  [[nodiscard]] report::Json toJson() const;
};

/// Inputs the profiler needs beyond the world: scan index, geo/whois, and
/// the per-product reference-site lists.
struct ProfilerSources {
  const scan::ShardedBannerIndex* index = nullptr;
  geo::GeoDatabase geo;
  geo::AsnDatabase whois;
  std::map<filters::ProductKind, std::vector<ReferenceSite>> referenceSites;
  const measure::TestList* globalList = nullptr;
  const measure::TestList* localList = nullptr;
  std::string echoUrl;  ///< empty = skip proxy detection
  int characterizationRuns = 1;
  /// Redirect limits + retry/backoff for every measurement fetch.
  simnet::FetchOptions fetchOptions;
  /// Campaign write-ahead journal (nullptr = not journaled). Stage
  /// boundaries and characterization verdicts are sync()ed.
  measure::CampaignJournal* journal = nullptr;
  /// Campaign-wide circuit breakers (nullptr = health tracking off).
  measure::HealthRegistry* health = nullptr;
};

/// One-call profiling of a network (composition of the §3/§4.3/§5/§7
/// building blocks; the §4 submission experiment stays separate because it
/// mutates vendor state and takes simulated days).
[[nodiscard]] NetworkProfile profileNetwork(simnet::World& world,
                                            const std::string& fieldVantage,
                                            const std::string& labVantage,
                                            const ProfilerSources& sources);

}  // namespace urlf::core

#endif  // URLF_CORE_PROFILER_H
