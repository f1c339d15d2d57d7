// Fuzz-style property tests over procedurally generated worlds: the
// methodology's guarantees must hold on topologies nobody hand-crafted.
#include <gtest/gtest.h>

#include <set>

#include "core/confirmer.h"
#include "core/identifier.h"
#include "scan/banner_index.h"
#include "scenarios/random_world.h"
#include "simnet/world_stream.h"

namespace urlf {
namespace {

using scenarios::RandomWorld;

using Installations =
    std::map<filters::ProductKind, std::vector<core::Installation>>;

Installations identify(RandomWorld& random) {
  auto& world = random.world();
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();
  scan::BannerIndex index;
  index.crawl(world, geo);
  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, whois);
  return identifier.identifyAll();
}

class RandomWorldProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorldProperty, GenerationIsDeterministic) {
  RandomWorld a(GetParam());
  RandomWorld b(GetParam());
  ASSERT_EQ(a.deployments().size(), b.deployments().size());
  for (std::size_t i = 0; i < a.deployments().size(); ++i) {
    EXPECT_EQ(a.deployments()[i].serviceIp, b.deployments()[i].serviceIp);
    EXPECT_EQ(a.deployments()[i].kind, b.deployments()[i].kind);
    EXPECT_EQ(a.deployments()[i].countryAlpha2,
              b.deployments()[i].countryAlpha2);
  }
}

TEST_P(RandomWorldProperty, IdentificationRecallAndVisibilityBoundary) {
  RandomWorld random(GetParam());
  const auto all = identify(random);

  for (const auto& info : random.deployments()) {
    const auto& found = all.at(info.kind);
    const bool present = std::any_of(
        found.begin(), found.end(), [&](const core::Installation& inst) {
          return inst.ip == info.serviceIp;
        });
    // Visible deployments are always found; hidden ones never are.
    EXPECT_EQ(present, info.externallyVisible)
        << filters::toString(info.kind) << " in " << info.countryAlpha2;
  }
}

TEST_P(RandomWorldProperty, IdentificationGeoAndAsnAreCorrect) {
  RandomWorld random(GetParam());
  const auto all = identify(random);

  std::map<std::uint32_t, const RandomWorld::DeploymentInfo*> byIp;
  for (const auto& info : random.deployments())
    byIp.emplace(info.serviceIp.value(), &info);

  for (const auto& [product, installations] : all) {
    for (const auto& inst : installations) {
      const auto it = byIp.find(inst.ip.value());
      if (it == byIp.end()) continue;  // vendor infra etc.
      EXPECT_EQ(inst.countryAlpha2, it->second->countryAlpha2);
      ASSERT_TRUE(inst.asn.has_value());
      EXPECT_EQ(inst.asn->asn, it->second->asn);
      EXPECT_EQ(product, it->second->kind);
    }
  }
}

/// Every validated installation is a deployment or vendor-operated
/// infrastructure, which genuinely carries product signatures (Netsweeper's
/// denypagetests origin and submission portal); decoys and bait never are.
void expectOnlyDeploymentsOrInfraValidate(RandomWorld& random,
                                          const Installations& all) {
  std::set<std::uint32_t> deploymentIps;
  for (const auto& info : random.deployments())
    deploymentIps.insert(info.serviceIp.value());

  std::set<std::uint32_t> vendorInfraIps;
  for (const char* host :
       {"denypagetests.netsweeper.com", "testasite.netsweeper.com",
        "sitereview.bluecoat.com", "trustedsource.mcafee.example",
        "csi.websense.example", "www.cfauth.com"}) {
    if (const auto ip = random.world().resolve(host))
      vendorInfraIps.insert(ip->value());
  }

  for (const auto& [product, installations] : all) {
    for (const auto& inst : installations) {
      if (deploymentIps.contains(inst.ip.value())) continue;
      EXPECT_TRUE(vendorInfraIps.contains(inst.ip.value()))
          << "unexpected validation: " << inst.ip.toString() << " as "
          << filters::toString(product);
    }
  }
}

TEST_P(RandomWorldProperty, NoDecoyEverValidates) {
  RandomWorld random(GetParam());
  expectOnlyDeploymentsOrInfraValidate(random, identify(random));
}

TEST(RandomWorldStream, NoBaitEverValidatesInA100kHostStream) {
  // 100k streamed hosts at the default 1% bait fraction: about a thousand
  // pages carry a Table 2 keyword ("proxysg review", "webadmin tutorial",
  // ...) that search finds and active validation must reject.
  RandomWorld random(20131023);
  simnet::ProceduralHostConfig config;
  config.hosts = 100000;
  auto stream =
      std::make_shared<simnet::ProceduralHostStream>(20131023, config);
  stream->announceInto(random.world());
  random.world().attachHostStream(std::move(stream));
  auto& world = random.world();
  const auto geo = world.buildGeoDatabase();
  const auto index = scan::crawlStream(world, geo);
  const core::Identifier identifier(world, index,
                                    fingerprint::Engine::withBuiltinSignatures(),
                                    geo, world.buildAsnDatabase());
  const auto all = identifier.identifyAll();
  std::size_t candidates = 0;
  for (const auto product : filters::allProducts())
    for (const auto& keyword : core::Identifier::shodanKeywords(product))
      candidates += index.search(scan::Query{keyword, std::nullopt}).size();
  EXPECT_GT(candidates, 1000u) << "the stream should plant keyword bait";
  expectOnlyDeploymentsOrInfraValidate(random, all);
}

TEST_P(RandomWorldProperty, ConfirmationMatchesDeploymentTruth) {
  RandomWorld random(GetParam());
  core::Confirmer confirmer(random.world(), random.hosting(),
                            random.vendorSet());

  // Confirm each product where it is deployed (cap the count to bound
  // runtime; the sweep across seeds covers the space).
  int tested = 0;
  for (const auto& info : random.deployments()) {
    if (tested++ >= 3) break;
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
    const auto result = confirmer.run(config);
    EXPECT_TRUE(result.confirmed)
        << filters::toString(info.kind) << " in " << info.ispName;
    EXPECT_EQ(result.controlBlocked, 0) << info.ispName;
  }
}

TEST_P(RandomWorldProperty, NoFalseConfirmationWhereProductAbsent) {
  RandomWorld random(GetParam());
  core::Confirmer confirmer(random.world(), random.hosting(),
                            random.vendorSet());

  // For the first deployment's ISP, pick a product NOT deployed there and
  // confirm it is not confirmed.
  if (random.deployments().empty()) GTEST_SKIP();
  const auto& info = random.deployments().front();
  const auto otherKind =
      info.kind == filters::ProductKind::kSmartFilter
          ? filters::ProductKind::kWebsense
          : filters::ProductKind::kSmartFilter;

  core::CaseStudyConfig config;
  config.product = otherKind;
  config.ispName = info.ispName;
  config.countryAlpha2 = info.countryAlpha2;
  config.fieldVantage = info.fieldVantage;
  config.labVantage = RandomWorld::kLabVantage;
  config.categoryName = otherKind == filters::ProductKind::kWebsense
                            ? "Proxy Avoidance"
                            : "Anonymizers";
  config.profile = simnet::ContentProfile::kGlypeProxy;
  config.totalSites = 6;
  config.sitesToSubmit = 3;
  config.waitDays = 5;
  const auto result = confirmer.run(config);
  EXPECT_FALSE(result.confirmed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorldProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// A heavier configuration: many countries, mostly-deployed, some hidden.
TEST(RandomWorldStress, LargeWorldInvariantsHold) {
  scenarios::RandomWorldConfig config;
  config.countries = 24;
  config.deploymentProbability = 0.8;
  config.hiddenProbability = 0.3;
  config.decoys = 12;
  config.contentSites = 24;
  RandomWorld random(999, config);

  EXPECT_GE(random.deployments().size(), 10u);
  const auto all = identify(random);

  int visible = 0;
  for (const auto& info : random.deployments()) {
    if (info.externallyVisible) ++visible;
    const auto& found = all.at(info.kind);
    const bool present = std::any_of(
        found.begin(), found.end(), [&](const core::Installation& inst) {
          return inst.ip == info.serviceIp;
        });
    EXPECT_EQ(present, info.externallyVisible) << info.ispName;
  }
  EXPECT_GT(visible, 0);
}

}  // namespace
}  // namespace urlf
