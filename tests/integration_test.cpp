// End-to-end integration tests: the full identify -> confirm -> characterize
// pipeline over the paper world, including the interplay between stages and
// the world variants used by the Table 5 evasion ablation.
#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "core/confirmer.h"
#include "core/identifier.h"
#include "scenarios/paper_world.h"

namespace urlf {
namespace {

using filters::ProductKind;
using scenarios::PaperWorld;
using scenarios::advanceClockTo;

/// The whole paper, one test: identify installations, confirm a product in
/// one of the identified networks, then characterize what it censors.
TEST(EndToEndTest, IdentifyConfirmCharacterize) {
  PaperWorld paper;
  auto& world = paper.world();

  // --- §3: identify.
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();
  const auto index = scan::crawlStream(world, geo);
  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, whois);
  const auto smartFilters = identifier.identify(ProductKind::kSmartFilter);

  // One of the validated SmartFilter installations is in Etisalat (AS 5384).
  const auto etisalatHit = std::find_if(
      smartFilters.begin(), smartFilters.end(), [](const auto& inst) {
        return inst.asn && inst.asn->asn == 5384;
      });
  ASSERT_NE(etisalatHit, smartFilters.end());

  // --- §4: confirm there.
  core::Confirmer confirmer(world, paper.hosting(), paper.vendorSet());
  const auto& caseStudy = paper.caseStudies()[1];  // Etisalat/Anonymizers
  advanceClockTo(world, caseStudy.startDate);
  const auto confirmation = confirmer.run(caseStudy.config);
  EXPECT_TRUE(confirmation.confirmed);

  // --- §5: characterize within 30 days.
  core::Characterizer characterizer(world);
  const auto characterization = characterizer.characterize(
      "field-etisalat", "lab-toronto", paper.globalList(),
      paper.localList("AE"));
  ASSERT_TRUE(characterization.attributedProduct);
  EXPECT_EQ(*characterization.attributedProduct, ProductKind::kSmartFilter);
  // Protected content is censored (the paper's headline finding).
  EXPECT_TRUE(characterization.categoryBlocked("Media Freedom"));
  EXPECT_TRUE(characterization.categoryBlocked("LGBT"));
  EXPECT_TRUE(characterization.categoryBlocked("Political Reform"));
  EXPECT_TRUE(characterization.categoryBlocked("Religious Criticism"));
  EXPECT_FALSE(characterization.categoryBlocked("Human Rights"));
}

TEST(EndToEndTest, Table4PatternForNetsweeperNetworks) {
  PaperWorld paper;
  advanceClockTo(paper.world(), {2013, 4, 1});
  core::Characterizer characterizer(paper.world());

  // Du (AE): political reform, LGBT, religious criticism, minority groups.
  const auto du = characterizer.characterize("field-du", "lab-toronto",
                                             paper.globalList(),
                                             paper.localList("AE"));
  EXPECT_TRUE(du.categoryBlocked("Political Reform"));
  EXPECT_TRUE(du.categoryBlocked("LGBT"));
  EXPECT_TRUE(du.categoryBlocked("Religious Criticism"));
  EXPECT_TRUE(du.categoryBlocked("Minority Groups and Religions"));
  EXPECT_FALSE(du.categoryBlocked("Media Freedom"));
  ASSERT_TRUE(du.attributedProduct);
  EXPECT_EQ(*du.attributedProduct, ProductKind::kNetsweeper);

  // Ooredoo (QA): LGBT and religious criticism only.
  const auto ooredoo = characterizer.characterize(
      "field-ooredoo", "lab-toronto", paper.globalList(),
      paper.localList("QA"));
  EXPECT_TRUE(ooredoo.categoryBlocked("LGBT"));
  EXPECT_TRUE(ooredoo.categoryBlocked("Religious Criticism"));
  EXPECT_FALSE(ooredoo.categoryBlocked("Political Reform"));
  EXPECT_FALSE(ooredoo.categoryBlocked("Human Rights"));

  // YemenNet: media freedom, human rights, political reform (three runs to
  // ride out the inconsistent blocking).
  const auto yemen = characterizer.characterize(
      "field-yemennet", "lab-toronto", paper.globalList(),
      paper.localList("YE"), /*runs=*/4);
  EXPECT_TRUE(yemen.categoryBlocked("Media Freedom"));
  EXPECT_TRUE(yemen.categoryBlocked("Human Rights"));
  EXPECT_TRUE(yemen.categoryBlocked("Political Reform"));
  EXPECT_FALSE(yemen.categoryBlocked("LGBT"));
}

TEST(EndToEndTest, ChallengeThreeTandemNegativeResult) {
  // Submissions to Blue Coat in Etisalat never block: SmartFilter is the
  // engine (§4.5). The identification stage still sees BOTH products there.
  PaperWorld paper;
  auto& world = paper.world();
  const auto geo = world.buildGeoDatabase();
  const auto index = scan::crawlStream(world, geo);
  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, world.buildAsnDatabase());

  auto inAs5384 = [](const std::vector<core::Installation>& installations) {
    return std::any_of(installations.begin(), installations.end(),
                       [](const auto& inst) {
                         return inst.asn && inst.asn->asn == 5384;
                       });
  };
  EXPECT_TRUE(inAs5384(identifier.identify(ProductKind::kBlueCoat)));
  EXPECT_TRUE(inAs5384(identifier.identify(ProductKind::kSmartFilter)));

  core::Confirmer confirmer(world, paper.hosting(), paper.vendorSet());
  const auto& blueCoatCase = paper.caseStudies()[4];  // Blue Coat / Etisalat
  ASSERT_EQ(blueCoatCase.config.product, ProductKind::kBlueCoat);
  advanceClockTo(world, blueCoatCase.startDate);
  const auto result = confirmer.run(blueCoatCase.config);
  EXPECT_FALSE(result.confirmed);
  EXPECT_EQ(result.submittedBlocked, 0);

  // The Blue Coat vendor DID accept and categorize the submissions — the
  // deployment just never consults its database.
  int accepted = 0;
  paper.vendor(ProductKind::kBlueCoat).processUntil(world.now());
  for (const auto& submission :
       paper.vendor(ProductKind::kBlueCoat).submissions())
    if (submission.state == filters::Submission::State::kAccepted) ++accepted;
  EXPECT_EQ(accepted, 3);
}

TEST(EndToEndTest, NetsweeperQueueEventuallyBlocksControlSites) {
  // §4.4: "once we have validated that our set of URLs is accessible, they
  // may be queued for categorization by Netsweeper, and eventually may be
  // blocked". Demonstrate with proxy domains accessed (not submitted) in
  // Ooredoo, far past the queue latency.
  PaperWorld paper;
  auto& world = paper.world();
  simnet::Transport transport(world);
  auto* field = world.findVantage("field-ooredoo");

  std::vector<std::string> urls;
  for (int i = 0; i < 8; ++i) {
    const auto domain = paper.hosting().createFreshDomain(
        simnet::ContentProfile::kGlypeProxy);
    urls.push_back("http://" + domain.hostname + "/");
  }
  for (const auto& url : urls) {
    const auto result = transport.fetchUrl(*field, url);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.response->statusCode, 200);  // accessible today
  }

  world.clock().advanceDays(30);
  int blockedLater = 0;
  for (const auto& url : urls) {
    const auto result = transport.fetchUrl(*field, url);
    if (result.ok() && result.response->statusCode != 200) ++blockedLater;
  }
  // queueCategorizeProbability = 0.6 over 8 URLs: some but maybe not all.
  EXPECT_GE(blockedLater, 2);
}

TEST(EndToEndTest, StripBrandingWorldBlocksWithoutAttribution) {
  PaperWorld paper(scenarios::kPaperSeed, {.stripBranding = true});
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());
  const auto& caseStudy = paper.caseStudies()[0];  // SmartFilter / Bayanat
  advanceClockTo(paper.world(), caseStudy.startDate);
  const auto result = confirmer.run(caseStudy.config);
  // The censorship still happens...
  EXPECT_EQ(result.submittedBlocked, 5);
  // ...but can no longer be pinned on McAfee.
  EXPECT_EQ(result.attributedToProduct, 0);
  EXPECT_FALSE(result.confirmed);
}

TEST(EndToEndTest, GeoErrorsPerturbButDoNotBreakIdentification) {
  PaperWorld paper;
  auto& world = paper.world();
  const auto noisyGeo = world.buildGeoDatabase(/*errorRate=*/0.1);
  const auto index = scan::crawlStream(world, noisyGeo);
  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              noisyGeo, world.buildAsnDatabase());
  const auto all = identifier.identifyAll();
  std::size_t total = 0;
  for (const auto& [product, installations] : all) total += installations.size();
  // Validation is country-independent: the same installations are found,
  // just sometimes mapped to the wrong country.
  std::size_t visibleTruth = 0;
  for (const auto& truth : paper.groundTruth())
    if (truth.externallyVisible) ++visibleTruth;
  EXPECT_GE(total, visibleTruth);
}

TEST(EndToEndTest, WholeCampaignRunsWithinSimulatedYear) {
  // Sanity: running everything end-to-end leaves the clock in 2013.
  PaperWorld paper;
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());
  for (const auto& caseStudy : paper.caseStudies()) {
    advanceClockTo(paper.world(), caseStudy.startDate);
    (void)confirmer.run(caseStudy.config);
  }
  EXPECT_EQ(paper.world().now().date().year, 2013);
}

}  // namespace
}  // namespace urlf
