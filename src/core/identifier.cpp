#include "core/identifier.h"

#include <algorithm>
#include <unordered_map>

#include "net/cctld.h"
#include "util/thread_pool.h"

namespace urlf::core {

using filters::ProductKind;

Identifier::Identifier(simnet::World& world,
                       const scan::ShardedBannerIndex& index,
                       fingerprint::Engine engine, geo::GeoDatabase geo,
                       geo::AsnDatabase whois, IdentifierConfig config)
    : world_(&world),
      index_(&index),
      engine_(std::move(engine)),
      geo_(std::move(geo)),
      whois_(std::move(whois)),
      config_(config) {}

std::vector<std::string> Identifier::shodanKeywords(ProductKind product) {
  // Verbatim from Table 2.
  switch (product) {
    case ProductKind::kBlueCoat:
      return {"proxysg", "cfru="};
    case ProductKind::kSmartFilter:
      return {"mcafee web gateway", "url blocked"};
    case ProductKind::kNetsweeper:
      return {"netsweeper", "webadmin", "webadmin/deny", "8080/webadmin/"};
    case ProductKind::kWebsense:
      return {"blockpage.cgi", "gateway websense"};
  }
  return {};
}

std::vector<scan::Query> Identifier::productQueries(ProductKind product) const {
  std::vector<scan::Query> queries;
  for (const auto& keyword : shodanKeywords(product)) {
    queries.push_back({keyword, std::nullopt});
    if (config_.expandByCountry) {
      for (const auto& country : net::allCountries())
        queries.push_back({keyword, std::string(country.alpha2)});
    }
  }
  return queries;
}

std::vector<std::uint32_t> Identifier::locateCandidateDocs(
    ProductKind product) const {
  return index_->searchAll(productQueries(product));
}

std::vector<Identifier::Candidate> Identifier::locate(
    ProductKind product) const {
  const auto docs = locateCandidateDocs(product);
  std::vector<Candidate> out;
  out.reserve(docs.size());
  for (const auto doc : docs) {
    const auto surface = index_->surface(doc);
    out.push_back({surface.ip, surface.port, doc});
  }
  return out;
}

namespace {

/// View a stored banner as a fingerprint observation (passive mode).
fingerprint::Observation toObservation(const scan::BannerRecord& record) {
  fingerprint::Observation obs;
  obs.ip = record.ip;
  obs.port = record.port;
  obs.statusCode = record.statusCode;
  obs.headers = record.headers;
  obs.body = record.body;
  obs.title = record.title;
  return obs;
}

/// toObservation into a reused observation: string/field capacity kept.
void observationInto(const scan::BannerRecord& record,
                     fingerprint::Observation& out) {
  out.ip = record.ip;
  out.port = record.port;
  out.statusCode = record.statusCode;
  out.headers = record.headers;
  out.body = record.body;
  out.title = record.title;
}

}  // namespace

void Identifier::validateReference(const Candidate& candidate,
                                   ValidationMode mode,
                                   std::vector<fingerprint::Match>& out) const {
  if (mode == ValidationMode::kActive) {
    out = engine_.probe(*world_, candidate.ip, candidate.port);
    return;
  }
  if (const auto* resident = index_->residentRecord(candidate.doc)) {
    out = engine_.evaluate(toObservation(*resident));
    return;
  }
  out = engine_.evaluate(toObservation(index_->fetchRecord(candidate.doc)));
}

void Identifier::validateLean(const Candidate& candidate, ValidationMode mode,
                              fingerprint::EvalScratch& scratch,
                              std::vector<fingerprint::Match>& out) const {
  if (mode == ValidationMode::kActive) {
    engine_.probeInto(*world_, candidate.ip, candidate.port, scratch, out);
    return;
  }
  if (const auto* resident = index_->residentRecord(candidate.doc)) {
    observationInto(*resident, scratch.observation);
  } else {
    auto fetched = index_->fetchRecord(candidate.doc);
    scratch.observation.ip = fetched.ip;
    scratch.observation.port = fetched.port;
    scratch.observation.statusCode = fetched.statusCode;
    scratch.observation.headers = std::move(fetched.headers);
    scratch.observation.body = std::move(fetched.body);
    scratch.observation.title = std::move(fetched.title);
  }
  engine_.evaluateInto(scratch.observation, scratch.view, out);
}

Identifier::ValidationWave Identifier::validateWave(
    const std::vector<std::vector<Candidate>>& perProduct,
    ValidationMode mode) const {
  ValidationWave wave;
  wave.slot.resize(perProduct.size());

  if (config_.threads == 1) {
    // Reference serial path: every (product, candidate) pair validated in
    // order through the allocating entry points — no dedup, no scratch.
    std::size_t next = 0;
    for (std::size_t p = 0; p < perProduct.size(); ++p) {
      wave.slot[p].resize(perProduct[p].size());
      for (std::size_t i = 0; i < perProduct[p].size(); ++i) {
        wave.results.emplace_back();
        validateReference(perProduct[p][i], mode, wave.results.back());
        wave.slot[p][i] = next++;
      }
    }
    return wave;
  }

  // Fast path. Validation depends only on the candidate surface, never on
  // the product whose keywords located it, so each distinct candidate doc
  // is validated exactly once and its verdict shared across products. Jobs
  // run in chunked waves; each chunk reuses one scratch observation, so
  // steady-state validation allocates only for evidence on actual hits.
  std::unordered_map<std::uint32_t, std::size_t> slotOf;
  std::vector<const Candidate*> distinct;
  for (std::size_t p = 0; p < perProduct.size(); ++p) {
    wave.slot[p].resize(perProduct[p].size());
    for (std::size_t i = 0; i < perProduct[p].size(); ++i) {
      const auto& candidate = perProduct[p][i];
      const auto [it, inserted] = slotOf.emplace(candidate.doc, distinct.size());
      if (inserted) distinct.push_back(&candidate);
      wave.slot[p][i] = it->second;
    }
  }

  wave.results.resize(distinct.size());
  util::parallelForChunks(
      distinct.size(),
      [&](std::size_t begin, std::size_t end) {
        fingerprint::EvalScratch scratch;
        for (std::size_t k = begin; k < end; ++k)
          validateLean(*distinct[k], mode, scratch, wave.results[k]);
      },
      config_.threads, 8);
  return wave;
}

std::vector<Installation> Identifier::selectInstallations(
    ProductKind product, const std::vector<Candidate>& candidates,
    const std::vector<std::vector<fingerprint::Match>>& results,
    const std::vector<std::size_t>& slot) const {
  std::vector<Installation> out;
  std::set<std::uint32_t> seenIps;

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& candidate = candidates[i];
    const auto& matches = results[slot[i]];
    // One installation per IP: validate each scanned port but report the IP
    // once, keeping the strongest validation.
    const auto hit =
        std::find_if(matches.begin(), matches.end(), [&](const auto& m) {
          return m.product == product && m.certainty >= config_.minCertainty;
        });
    if (hit == matches.end()) continue;
    if (!seenIps.insert(candidate.ip.value()).second) continue;

    Installation inst;
    inst.product = product;
    inst.ip = candidate.ip;
    inst.port = candidate.port;
    inst.certainty = hit->certainty;
    inst.evidence = hit->evidence;
    inst.countryAlpha2 = geo_.lookup(candidate.ip).value_or("??");
    inst.asn = whois_.lookup(candidate.ip);
    out.push_back(std::move(inst));
  }
  return out;
}

std::vector<Installation> Identifier::identifyWith(ProductKind product,
                                                   ValidationMode mode) const {
  std::vector<std::vector<Candidate>> perProduct(1);
  perProduct[0] = locate(product);
  const auto wave = validateWave(perProduct, mode);
  return selectInstallations(product, perProduct[0], wave.results,
                             wave.slot[0]);
}

std::map<ProductKind, std::vector<Installation>> Identifier::identifyAllWith(
    ValidationMode mode) const {
  const auto& products = filters::allProducts();

  // Locate every product's candidates first (fast: indexed search), then
  // validate the flattened candidate set in one wave — wider than four
  // sequential per-product fan-outs, and deduplicated across products on
  // the fast path.
  std::vector<std::vector<Candidate>> candidates(products.size());
  for (std::size_t p = 0; p < products.size(); ++p)
    candidates[p] = locate(products[p]);

  const auto wave = validateWave(candidates, mode);

  std::map<ProductKind, std::vector<Installation>> out;
  for (std::size_t p = 0; p < products.size(); ++p)
    out.emplace(products[p],
                selectInstallations(products[p], candidates[p], wave.results,
                                    wave.slot[p]));
  return out;
}

std::map<ProductKind, std::vector<Installation>> Identifier::identifyAllCached(
    ValidationCache& cache, const SurfaceEpochFn& surfaceEpoch) const {
  const auto& products = filters::allProducts();

  std::vector<std::vector<Candidate>> candidates(products.size());
  for (std::size_t p = 0; p < products.size(); ++p)
    candidates[p] = locate(products[p]);

  // Dedup across products by surface identity — validation is a pure
  // function of (ip, port) content in active mode, so the cache key and the
  // dedup key coincide.
  std::unordered_map<std::uint64_t, std::size_t> slotOf;
  std::vector<const Candidate*> distinct;
  std::vector<std::vector<std::size_t>> slot(products.size());
  for (std::size_t p = 0; p < products.size(); ++p) {
    slot[p].resize(candidates[p].size());
    for (std::size_t i = 0; i < candidates[p].size(); ++i) {
      const auto& candidate = candidates[p][i];
      const std::uint64_t key =
          (std::uint64_t{candidate.ip.value()} << 16) | candidate.port;
      const auto [it, inserted] = slotOf.emplace(key, distinct.size());
      if (inserted) distinct.push_back(&candidate);
      slot[p][i] = it->second;
    }
  }

  std::vector<std::vector<fingerprint::Match>> results(distinct.size());
  std::vector<std::uint64_t> epochs(distinct.size());
  std::vector<std::size_t> misses;
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    const auto& candidate = *distinct[k];
    epochs[k] = surfaceEpoch(candidate.ip, candidate.port);
    const auto* entry = cache.find(candidate.ip, candidate.port);
    if (entry != nullptr && entry->epoch == epochs[k]) {
      results[k] = entry->matches;
      cache.tallyHit();
    } else {
      misses.push_back(k);
      cache.tallyMiss();
    }
  }

  // Validate the misses in the same chunked wave identifyAll uses; slot
  // writes are per-index, so output is byte-identical at any thread count.
  if (config_.threads == 1) {
    for (const auto k : misses)
      validateReference(*distinct[k], ValidationMode::kActive, results[k]);
  } else {
    util::parallelForChunks(
        misses.size(),
        [&](std::size_t begin, std::size_t end) {
          fingerprint::EvalScratch scratch;
          for (std::size_t j = begin; j < end; ++j) {
            const auto k = misses[j];
            validateLean(*distinct[k], ValidationMode::kActive, scratch,
                         results[k]);
          }
        },
        config_.threads, 8);
  }
  for (const auto k : misses)
    cache.store(distinct[k]->ip, distinct[k]->port, epochs[k], results[k]);

  std::map<ProductKind, std::vector<Installation>> out;
  for (std::size_t p = 0; p < products.size(); ++p)
    out.emplace(products[p], selectInstallations(products[p], candidates[p],
                                                 results, slot[p]));
  return out;
}

std::vector<Installation> Identifier::identify(ProductKind product) const {
  return identifyWith(product, ValidationMode::kActive);
}

std::vector<Installation> Identifier::identifyPassive(
    ProductKind product) const {
  return identifyWith(product, ValidationMode::kPassive);
}

std::map<ProductKind, std::vector<Installation>> Identifier::identifyAllPassive()
    const {
  return identifyAllWith(ValidationMode::kPassive);
}

std::map<ProductKind, std::vector<Installation>> Identifier::identifyAll()
    const {
  return identifyAllWith(ValidationMode::kActive);
}

std::map<ProductKind, std::set<std::string>> Identifier::countriesByProduct(
    const std::map<ProductKind, std::vector<Installation>>& all) {
  std::map<ProductKind, std::set<std::string>> out;
  for (const auto& [product, installations] : all) {
    auto& countries = out[product];
    for (const auto& inst : installations) countries.insert(inst.countryAlpha2);
  }
  return out;
}

}  // namespace urlf::core
