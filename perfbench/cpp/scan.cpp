// scan: §3 identification at scale. A RandomWorld with recorded
// ground-truth deployments carries a ProceduralHostStream at the stream's
// default bait fraction; set-up crawls it into a ShardedBannerIndex with
// scan::crawlStream. Each operation is one Identifier::identify(product)
// pass, round-robin over the four products.
//
// Every pass is checked against RandomWorld::deployments(): each externally
// visible deployment of the product is found with its product, country and
// ASN, and nothing else validates except vendor-operated infrastructure.
// The Blue Coat pass fails that check on every seed — bait hosts whose
// title carries "ProxySG" validate as installations — and is counted as a
// failed operation.
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "core/identifier.h"
#include "fingerprint/engine.h"
#include "http/html.h"
#include "http/message.h"
#include "scan/banner_index.h"
#include "scenarios/random_world.h"
#include "simnet/world_stream.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using namespace urlf;

constexpr std::uint64_t kStreamHosts = 200000;
constexpr int kStreamCountries = 8;
constexpr std::size_t kThreads = 1;

/// Vendor-operated infrastructure genuinely carries product signatures;
/// it may validate (the NoDecoyEverValidates rule).
const char* const kVendorInfraHosts[] = {
    "denypagetests.netsweeper.com", "testasite.netsweeper.com",
    "sitereview.bluecoat.com",      "trustedsource.mcafee.example",
    "csi.websense.example",         "www.cfauth.com"};

/// Seed of the RandomWorld that carries the deployments. It is fixed so
/// that every run scans the same deployments and countries; the run seed
/// draws the streamed population.
constexpr std::uint64_t kWorldSeed = 20131023;

struct ScanState {
  explicit ScanState(std::uint64_t seed) : random(kWorldSeed) {
    simnet::ProceduralHostConfig config;
    config.hosts = kStreamHosts;
    config.countries = kStreamCountries;
    auto stream = std::make_shared<simnet::ProceduralHostStream>(
        seed ^ 0x5CA7ULL, config);
    stream->announceInto(random.world());
    random.world().attachHostStream(std::move(stream));
    geo = random.world().buildGeoDatabase();
  }

  void crawl() {
    scan::StreamCrawlOptions options;
    options.threadLimit = kThreads;
    index = scan::crawlStream(random.world(), geo, options);
  }

  void makeIdentifier() {
    core::IdentifierConfig config;
    config.threads = kThreads;
    identifier.emplace(random.world(), index,
                       fingerprint::Engine::withBuiltinSignatures(), geo,
                       random.world().buildAsnDatabase(), config);
  }

  scenarios::RandomWorld random;
  geo::GeoDatabase geo;
  scan::ShardedBannerIndex index;
  std::optional<core::Identifier> identifier;
};

/// Ground-truth check of one product pass; empty when it passes.
std::string checkPass(ScanState& state, filters::ProductKind product,
                      const std::vector<core::Installation>& found) {
  std::set<std::uint32_t> infra;
  for (const char* host : kVendorInfraHosts)
    if (const auto ip = state.random.world().resolve(host))
      infra.insert(ip->value());
  std::set<std::uint32_t> deployments;
  for (const auto& info : state.random.deployments())
    deployments.insert(info.serviceIp.value());

  std::map<std::uint32_t, const core::Installation*> byIp;
  for (const auto& installation : found)
    byIp.emplace(installation.ip.value(), &installation);

  for (const auto& info : state.random.deployments()) {
    if (info.kind != product || !info.externallyVisible) continue;
    const auto it = byIp.find(info.serviceIp.value());
    if (it == byIp.end())
      return "missed " + info.serviceIp.toString() + " (" + info.ispName + ")";
    const auto& got = *it->second;
    if (got.product != product || got.countryAlpha2 != info.countryAlpha2 ||
        !got.asn || got.asn->asn != info.asn)
      return "wrong country/ASN for " + info.serviceIp.toString();
  }
  std::size_t extra = 0;
  std::string example;
  for (const auto& installation : found) {
    const auto ip = installation.ip.value();
    if (infra.contains(ip)) continue;
    bool visibleDeployment = false;
    for (const auto& info : state.random.deployments())
      visibleDeployment = visibleDeployment ||
                          (info.serviceIp.value() == ip && info.kind == product &&
                           info.externallyVisible);
    if (visibleDeployment) continue;
    if (extra++ == 0) example = installation.ip.toString();
  }
  if (extra > 0)
    return std::to_string(extra) + " hosts that are no deployment validated (e.g. " +
           example + ")";
  return {};
}

std::uint64_t passDigest(const std::vector<core::Installation>& found) {
  std::string text;
  for (const auto& installation : found) {
    text += installation.ip.toString();
    text += ':';
    text += std::to_string(installation.port);
    text += installation.countryAlpha2;
    text += installation.asn ? std::to_string(installation.asn->asn) : "-";
    text += '\n';
  }
  return util::fnv1a64(text);
}

}  // namespace

Outcome scanUntraced(const RunConfig& config) {
  Outcome outcome;
  Timing timing;
  std::unique_ptr<ScanState> state;
  timeSetups(3, timing, [&] {
    state.reset();
    state = std::make_unique<ScanState>(config.seed);
    state->crawl();
    state->makeIdentifier();
  });

  const auto& kinds = filters::allProducts();
  std::vector<std::uint64_t> digests;
  std::map<filters::ProductKind, std::vector<core::Installation>> firstRound;
  runRounds(config.seconds, timing, [&](std::vector<double>& latencies) {
    for (const auto product : kinds) {
      const auto start = Clock::now();
      auto found = state->identifier->identify(product);
      latencies.push_back(msSince(start));
      digests.push_back(passDigest(found));
      if (!firstRound.contains(product))
        firstRound.emplace(product, std::move(found));
    }
  });
  addEndToEnd(outcome, timing);

  // Each product's pass is checked against ground truth once and every
  // later pass must reproduce it exactly.
  std::map<filters::ProductKind, bool> passes;
  for (const auto& [product, found] : firstRound) {
    const auto problem = checkPass(*state, product, found);
    passes[product] = problem.empty();
    if (!problem.empty())
      std::cerr << "perfbench: scan " << filters::toString(product)
                << " pass fails: " << problem << "\n";
  }
  outcome.attempted = digests.size();
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const auto product = kinds[i % kinds.size()];
    const bool same = digests[i] == digests[i % kinds.size()];
    outcome.expect(same, "every pass reproduces the first pass of its product");
    if (!passes[product] || !same) ++outcome.failed;
  }
  // Only the Blue Coat pass may fail, through the bait fault named above.
  for (const auto& [product, ok] : passes)
    outcome.expect(ok || product == filters::ProductKind::kBlueCoat,
                   std::string(filters::toString(product)) +
                       " pass matches ground truth");
  return outcome;
}

void scanTraced(const RunConfig& config, Outcome& outcome) {
  constexpr int kRounds = 3;
  Tracer tracer;
  ScanState state(config.seed);
  {
    const auto span = tracer.span("scan.crawl");
    state.crawl();
  }
  state.makeIdentifier();
  const auto& kinds = filters::allProducts();

  const auto engine = fingerprint::Engine::withBuiltinSignatures();
  const auto& world = state.random.world();
  double untracedMs = 0.0;
  double tracedMs = 0.0;
  double candidates = 0.0;
  double installations = 0.0;
  std::uint64_t op = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto product : kinds) {
      // Untraced and traced passes alternate, so warm-up favours neither.
      {
        const auto start = Clock::now();
        const auto found = state.identifier->identify(product);
        untracedMs += msSince(start);
      }
      tracer.beginOp(op++);
      std::vector<core::Installation> found;
      const auto start = Clock::now();
      {
        const auto span = tracer.span("core.identify");
        found = state.identifier->identify(product);
      }
      tracedMs += msSince(start);
      ++outcome.attempted;
      if (!checkPass(state, product, found).empty()) ++outcome.failed;
      installations += static_cast<double>(found.size());

      // Drill-down: the same pass re-driven through the public layer calls.
      const auto drill = tracer.span("scan.drilldown");
      std::vector<std::uint32_t> docs;
      {
        const auto span = tracer.span("scan.search");
        docs = state.identifier->locateCandidateDocs(product);
      }
      candidates += static_cast<double>(docs.size());
      for (const auto doc : docs) {
        const auto surface = state.index.surface(doc);
        const auto request = http::Request::get(
            net::Url{"http", surface.ip.toString(), surface.port, "/", ""});
        std::optional<http::Response> response;
        {
          const auto span = tracer.span("simnet.probe");
          response = world.probeExternal(surface.ip, surface.port, request);
        }
        if (!response) continue;
        fingerprint::Observation observation;
        observation.ip = surface.ip;
        observation.port = surface.port;
        observation.statusCode = response->statusCode;
        observation.headers = std::move(response->headers);
        observation.title = http::extractTitle(response->body);
        observation.body = std::move(response->body);
        const auto span = tracer.span("fingerprint.match");
        const auto matches = engine.evaluate(observation);
      }
    }
  }
  if (!config.traceDir.empty()) tracer.write(config.traceDir + "/scan.jsonl");

  const auto passes = static_cast<double>(kRounds * kinds.size());
  addOverhead(outcome, "scan", untracedMs, tracedMs,
              static_cast<std::uint64_t>(passes));
  addLayer(outcome, tracer, "scan.crawl", "scan.crawl_s", "s");
  outcome.add("scan.index_mb",
              static_cast<double>(state.index.memoryBytes()) / (1024.0 * 1024.0),
              "MiB", state.index.docCount());
  addLayer(outcome, tracer, "scan.search", "scan.search_ms", "ms");
  outcome.add("core.candidates", candidates / passes, "count",
              static_cast<std::uint64_t>(passes));
  outcome.add("core.installations", installations / passes, "count",
              static_cast<std::uint64_t>(passes));
  addLayer(outcome, tracer, "simnet.probe", "simnet.probe_us", "us");
  addLayer(outcome, tracer, "fingerprint.match", "fingerprint.match_us", "us");
}

}  // namespace perfbench
