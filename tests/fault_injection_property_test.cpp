// Property tests for the fault-injection layer (DESIGN.md §4): zero-rate
// plans are invisible byte-for-byte, outcomes are independent of worker-pool
// width, and confirmation verdicts survive sub-threshold fault rates.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/confirmer.h"
#include "core/identifier.h"
#include "measure/session.h"
#include "scenarios/random_world.h"
#include "simnet/fault.h"

namespace urlf {
namespace {

using scenarios::RandomWorld;
using scenarios::RandomWorldConfig;

/// Sub-threshold fault preset: per-process rate plus the retry budget that
/// rides it out. BENCH_faults.json locates the verdict-flip point well above
/// this rate (see bench/ablation_faults.cpp).
constexpr double kSubThresholdRate = 0.02;

simnet::FetchOptions resilientFetchOptions() {
  simnet::FetchOptions options;
  options.retry.maxAttempts = 4;
  options.retry.retryOnConnectFailure = true;
  return options;
}

/// A deterministic URL workload exercising every outcome class: fresh
/// hosted domains, a decoy, an NXDOMAIN, and a parse failure.
std::vector<std::string> workload(RandomWorld& random) {
  std::vector<std::string> urls;
  for (int i = 0; i < 4; ++i) {
    const auto domain =
        random.hosting().createFreshDomain(simnet::ContentProfile::kGlypeProxy);
    urls.push_back("http://" + domain.hostname + "/");
  }
  urls.push_back("http://decoy0.example/");
  urls.push_back("http://nonexistent.example/");
  urls.push_back("http:////bad url");
  return urls;
}

std::string measureSession(RandomWorld& random,
                           const simnet::FetchOptions& options) {
  auto& world = random.world();
  const auto* field = world.findVantage(random.fieldVantages().front());
  const auto* lab = world.findVantage(RandomWorld::kLabVantage);
  measure::Client client(world, *field, *lab, options);
  return measure::exportSession(client.testList(workload(random)), 2);
}

std::string bannerFingerprint(const scan::ShardedBannerIndex& index) {
  std::ostringstream out;
  for (const auto& record : index.residentRecords())
    out << record.ip.toString() << ':' << record.port << ' '
        << record.statusCode << ' ' << record.countryAlpha2 << ' '
        << record.title << '\n'
        << record.searchableText() << '\n';
  return out.str();
}

std::string installationsFingerprint(RandomWorld& random,
                                     const scan::ShardedBannerIndex& index) {
  auto& world = random.world();
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();
  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, whois);
  std::ostringstream out;
  for (const auto& [product, installations] : identifier.identifyAll()) {
    for (const auto& inst : installations) {
      out << filters::toString(product) << ' ' << inst.ip.toString() << ':'
          << inst.port << ' ' << inst.countryAlpha2 << ' ' << inst.certainty
          << '\n';
      for (const auto& line : inst.evidence) out << "  " << line << '\n';
    }
  }
  return out.str();
}

class FaultProperty : public ::testing::TestWithParam<std::uint64_t> {};

// (a) A zero-rate plan must be indistinguishable from no plan at all —
// byte-for-byte on the full recorded session, retries enabled on both.
TEST_P(FaultProperty, ZeroRatePlanIsByteForByteInvisible) {
  RandomWorld plain(GetParam());
  RandomWorld planned(GetParam());
  planned.world().setFaultPlan(
      simnet::FaultPlan(0xDEADBEEFULL, simnet::FaultRates{}));

  const auto options = resilientFetchOptions();
  EXPECT_EQ(measureSession(plain, options), measureSession(planned, options));
}

// (b) With a nonzero plan installed, the pipeline's output is a pure
// function of the seed: a serial crawl and a pooled crawl of identically
// seeded worlds yield byte-identical banners, installations, and recorded
// measurement sessions. Fault draws are keyed hashes, never consumed from a
// shared stream, so worker-pool width cannot reorder them.
TEST_P(FaultProperty, OutcomeIndependentOfThreadCount) {
  RandomWorldConfig config;
  config.faultRate = 0.05;

  RandomWorld serial(GetParam(), config);
  RandomWorld pooled(GetParam(), config);

  const auto geoSerial = serial.world().buildGeoDatabase();
  const auto geoPooled = pooled.world().buildGeoDatabase();
  scan::StreamCrawlOptions serialOptions;
  serialOptions.threadLimit = 1;
  const auto indexSerial =
      scan::crawlStream(serial.world(), geoSerial, serialOptions);
  const auto indexPooled = scan::crawlStream(pooled.world(), geoPooled);

  EXPECT_EQ(bannerFingerprint(indexSerial), bannerFingerprint(indexPooled));
  EXPECT_EQ(installationsFingerprint(serial, indexSerial),
            installationsFingerprint(pooled, indexPooled));

  const auto options = resilientFetchOptions();
  EXPECT_EQ(measureSession(serial, options), measureSession(pooled, options));
}

// (c) Confirmation verdicts are stable under sub-threshold fault rates:
// retries plus multi-pass retesting absorb the injected flakiness, so every
// case study decided on a clean world decides the same way on a faulty one.
TEST_P(FaultProperty, ConfirmationStableUnderSubThresholdFaults) {
  RandomWorld clean(GetParam());
  RandomWorldConfig faultyConfig;
  faultyConfig.faultRate = kSubThresholdRate;
  RandomWorld faulty(GetParam(), faultyConfig);

  ASSERT_EQ(clean.deployments().size(), faulty.deployments().size());
  int tested = 0;
  for (std::size_t i = 0; i < clean.deployments().size(); ++i) {
    if (tested++ >= 2) break;  // runtime bound; the seed sweep covers space
    const auto& info = clean.deployments()[i];

    core::CaseStudyConfig config;
    config.product = info.kind;
    config.ispName = info.ispName;
    config.countryAlpha2 = info.countryAlpha2;
    config.fieldVantage = info.fieldVantage;
    config.labVantage = RandomWorld::kLabVantage;
    config.categoryName = info.proxyCategoryName;
    config.profile = simnet::ContentProfile::kGlypeProxy;
    config.totalSites = 6;
    config.sitesToSubmit = 3;
    config.waitDays = 5;

    core::Confirmer cleanConfirmer(clean.world(), clean.hosting(),
                                   clean.vendorSet());
    const auto baseline = cleanConfirmer.run(config);

    config.fetchOptions = resilientFetchOptions();
    config.retestRuns = 2;
    core::Confirmer faultyConfirmer(faulty.world(), faulty.hosting(),
                                    faulty.vendorSet());
    const auto observed = faultyConfirmer.run(config);

    EXPECT_EQ(baseline.confirmed, observed.confirmed)
        << filters::toString(info.kind) << " in " << info.ispName
        << " flipped at rate " << kSubThresholdRate << "\nnotes: "
        << observed.notes << "\nblocked " << observed.blockedRatio()
        << " attributed " << observed.attributedToProduct << " pretest "
        << observed.pretestAccessibleCount;
    EXPECT_EQ(observed.controlBlocked, 0) << info.ispName;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

}  // namespace
}  // namespace urlf
