#include <gtest/gtest.h>

#include "core/confirmer.h"
#include "core/identifier.h"
#include "scenarios/paper_world.h"

namespace urlf::scenarios {
namespace {

using filters::ProductKind;

// ----------------------------------------------------- World invariants ----

TEST(PaperWorldTest, CaseStudyIspsExistWithPaperAsns) {
  PaperWorld paper;
  struct Expected {
    const char* isp;
    std::uint32_t asn;
  };
  const Expected expected[] = {
      {"Etisalat", 5384},  {"Du", 15802},          {"Ooredoo", 42298},
      {"YemenNet", 12486}, {"Bayanat Al-Oula", 48237}, {"Nournet", 29684},
  };
  for (const auto& [name, asn] : expected) {
    auto* isp = paper.world().findIsp(name);
    ASSERT_NE(isp, nullptr) << name;
    EXPECT_EQ(isp->primaryAsn(), asn) << name;
  }
}

TEST(PaperWorldTest, VantagePointsForAllCaseStudyIsps) {
  PaperWorld paper;
  for (const char* vantage :
       {"field-etisalat", "field-du", "field-ooredoo", "field-yemennet",
        "field-bayanat", "field-nournet", "lab-toronto"})
    EXPECT_NE(paper.world().findVantage(vantage), nullptr) << vantage;
  EXPECT_TRUE(paper.world().findVantage("lab-toronto")->isLab());
}

TEST(PaperWorldTest, TenCaseStudiesInChronologicalOrder) {
  PaperWorld paper;
  const auto& studies = paper.caseStudies();
  ASSERT_EQ(studies.size(), 10u);
  for (std::size_t i = 1; i < studies.size(); ++i)
    EXPECT_LE(studies[i - 1].startDate, studies[i].startDate);
  EXPECT_EQ(studies.front().startDate.year, 2012);
  EXPECT_EQ(studies.back().startDate, (util::CivilDate{2013, 8, 5}));
}

TEST(PaperWorldTest, GroundTruthCoversAllProducts) {
  PaperWorld paper;
  std::map<ProductKind, int> counts;
  for (const auto& g : paper.groundTruth()) ++counts[g.product];
  EXPECT_GE(counts[ProductKind::kBlueCoat], 16);
  EXPECT_GE(counts[ProductKind::kSmartFilter], 4);
  EXPECT_GE(counts[ProductKind::kNetsweeper], 10);
  EXPECT_GE(counts[ProductKind::kWebsense], 2);
}

TEST(PaperWorldTest, SaudiFilterIsSharedAcrossBothIsps) {
  PaperWorld paper;
  auto* bayanat = paper.world().findIsp("Bayanat Al-Oula");
  auto* nournet = paper.world().findIsp("Nournet");
  ASSERT_EQ(bayanat->stages().size(), 1u);
  ASSERT_EQ(nournet->stages().size(), 1u);
  EXPECT_EQ(bayanat->stages()[0], nournet->stages()[0]);  // centralized (§4.3)
  EXPECT_EQ(bayanat->stages()[0], &paper.saudiNationalSmartFilter());
}

TEST(PaperWorldTest, EtisalatRunsTandemProxy) {
  PaperWorld paper;
  EXPECT_TRUE(paper.etisalatProxySG().hasFilteringEngine());
  auto* etisalat = paper.world().findIsp("Etisalat");
  ASSERT_EQ(etisalat->stages().size(), 1u);
  EXPECT_EQ(etisalat->stages()[0], &paper.etisalatProxySG());
}

TEST(PaperWorldTest, GlobalAndLocalListsPopulated) {
  PaperWorld paper;
  EXPECT_GE(paper.globalList().entries.size(), 18u);
  for (const char* alpha2 : {"AE", "QA", "SA", "YE"})
    EXPECT_GE(paper.localList(alpha2).entries.size(), 2u) << alpha2;
  EXPECT_TRUE(paper.localList("FR").entries.empty());
}

TEST(PaperWorldTest, ListCategoriesAreValidOniCategories) {
  PaperWorld paper;
  auto check = [](const measure::TestList& list) {
    for (const auto& entry : list.entries)
      EXPECT_TRUE(measure::oniCategoryByName(entry.oniCategory))
          << list.name << ": " << entry.oniCategory;
  };
  check(paper.globalList());
  for (const char* alpha2 : {"AE", "QA", "SA", "YE"})
    check(paper.localList(alpha2));
}

TEST(PaperWorldTest, GlobalListUrlsResolveInWorld) {
  PaperWorld paper;
  for (const auto& entry : paper.globalList().entries) {
    const auto url = net::Url::parse(entry.url);
    ASSERT_TRUE(url) << entry.url;
    EXPECT_TRUE(paper.world().resolve(url->host())) << entry.url;
  }
}

TEST(PaperWorldTest, VendorAccessors) {
  PaperWorld paper;
  for (const auto kind : filters::allProducts()) {
    EXPECT_EQ(paper.vendor(kind).kind(), kind);
    EXPECT_TRUE(paper.vendorSet().has(kind));
  }
}

TEST(PaperWorldTest, YemenPolicyBlocksExactlyTheFiveVendorCategoriesPlusCustom) {
  PaperWorld paper;
  EXPECT_EQ(paper.yemenNetsweeper().policy().blockedCategories,
            (std::set<filters::CategoryId>{2, 23, 39, 43, 47, 66}));
  EXPECT_GT(paper.yemenNetsweeper().policy().offlineProbability, 0.0);
}

// -------------------------------------------------------- Determinism ----

TEST(PaperWorldTest, SameSeedSameWorld) {
  PaperWorld a(kPaperSeed);
  PaperWorld b(kPaperSeed);
  ASSERT_EQ(a.groundTruth().size(), b.groundTruth().size());
  for (std::size_t i = 0; i < a.groundTruth().size(); ++i) {
    EXPECT_EQ(a.groundTruth()[i].serviceIp, b.groundTruth()[i].serviceIp);
    EXPECT_EQ(a.groundTruth()[i].product, b.groundTruth()[i].product);
  }
}

TEST(PaperWorldTest, CaseStudyResultsAreDeterministic) {
  auto runFirstThree = [](PaperWorld& paper) {
    core::Confirmer confirmer(paper.world(), paper.hosting(),
                              paper.vendorSet());
    std::vector<std::string> outcomes;
    for (std::size_t i = 0; i < 3; ++i) {
      const auto& cs = paper.caseStudies()[i];
      advanceClockTo(paper.world(), cs.startDate);
      const auto result = confirmer.run(cs.config);
      outcomes.push_back(result.blockedRatio() + ":" +
                         (result.confirmed ? "y" : "n"));
    }
    return outcomes;
  };
  PaperWorld a(kPaperSeed);
  PaperWorld b(kPaperSeed);
  EXPECT_EQ(runFirstThree(a), runFirstThree(b));
}

// --------------------------------------------- Table 3 reproduction ----

/// The full Table 3, asserted row by row. This is THE headline check: the
/// methodology, run against the simulated world, must reproduce the paper's
/// results exactly.
TEST(Table3Test, ReproducesAllTenRows) {
  PaperWorld paper;
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());

  struct ExpectedRow {
    ProductKind product;
    const char* isp;
    const char* date;
    const char* blocked;
    bool confirmed;
  };
  const ExpectedRow expected[] = {
      {ProductKind::kSmartFilter, "Bayanat Al-Oula", "9/2012", "5/5", true},
      {ProductKind::kSmartFilter, "Etisalat", "9/2012", "5/5", true},
      {ProductKind::kNetsweeper, "Du", "3/2013", "5/6", true},
      {ProductKind::kNetsweeper, "YemenNet", "3/2013", "6/6", true},
      {ProductKind::kBlueCoat, "Etisalat", "4/2013", "0/3", false},
      {ProductKind::kBlueCoat, "Ooredoo", "4/2013", "0/3", false},
      {ProductKind::kSmartFilter, "Ooredoo", "4/2013", "0/5", false},
      {ProductKind::kSmartFilter, "Etisalat", "4/2013", "5/5", true},
      {ProductKind::kSmartFilter, "Nournet", "5/2013", "5/5", true},
      {ProductKind::kNetsweeper, "Ooredoo", "8/2013", "6/6", true},
  };

  const auto& studies = paper.caseStudies();
  ASSERT_EQ(studies.size(), std::size(expected));
  for (std::size_t i = 0; i < studies.size(); ++i) {
    advanceClockTo(paper.world(), studies[i].startDate);
    const auto result = confirmer.run(studies[i].config);
    SCOPED_TRACE("row " + std::to_string(i) + ": " +
                 std::string(filters::toString(expected[i].product)) + " / " +
                 expected[i].isp);
    EXPECT_EQ(result.config.ispName, expected[i].isp);
    EXPECT_EQ(result.config.product, expected[i].product);
    EXPECT_EQ(result.dateLabel, expected[i].date);
    EXPECT_EQ(result.blockedRatio(), expected[i].blocked);
    EXPECT_EQ(result.confirmed, expected[i].confirmed);
  }
}

TEST(Table3Test, NetsweeperCategoryProbeShowsExactlyTheFivePaperCategories) {
  PaperWorld paper;
  advanceClockTo(paper.world(), {2013, 1, 14});
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());
  const auto probe =
      confirmer.probeNetsweeperCategories("field-yemennet", "lab-toronto");
  ASSERT_EQ(probe.size(), 66u);

  std::set<std::string> blocked;
  for (const auto& result : probe)
    if (result.blocked) blocked.insert(result.categoryName);
  EXPECT_EQ(blocked,
            (std::set<std::string>{"Adult Image", "Phishing", "Pornography",
                                   "Proxy Anonymizer", "Search Keywords"}));
}

// ------------------------------------------------ Figure 1 reproduction ----

TEST(Fig1Test, IdentificationRecoversAllVisibleGroundTruth) {
  PaperWorld paper;
  const auto geo = paper.world().buildGeoDatabase();
  const auto whois = paper.world().buildAsnDatabase();
  const auto index = scan::crawlStream(paper.world(), geo);
  core::Identifier identifier(paper.world(), index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, whois);
  const auto all = identifier.identifyAll();

  for (const auto& truth : paper.groundTruth()) {
    if (!truth.externallyVisible) continue;
    const auto& installations = all.at(truth.product);
    const bool found = std::any_of(
        installations.begin(), installations.end(),
        [&](const core::Installation& inst) {
          return inst.ip == truth.serviceIp &&
                 inst.countryAlpha2 == truth.countryAlpha2 &&
                 inst.asn && inst.asn->asn == truth.asn;
        });
    EXPECT_TRUE(found) << filters::toString(truth.product) << " at "
                       << truth.serviceIp.toString() << " (" << truth.ispName
                       << ")";
  }
}

TEST(Fig1Test, CountriesMatchTheSec32Narrative) {
  PaperWorld paper;
  const auto geo = paper.world().buildGeoDatabase();
  const auto index = scan::crawlStream(paper.world(), geo);
  core::Identifier identifier(paper.world(), index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, paper.world().buildAsnDatabase());
  const auto countries =
      core::Identifier::countriesByProduct(identifier.identifyAll());

  // §3.2: Blue Coat newly seen in South America, Europe, Asia, Middle East.
  for (const char* alpha2 :
       {"AR", "CL", "FI", "SE", "PH", "TH", "TW", "IL", "LB", "US"})
    EXPECT_TRUE(countries.at(ProductKind::kBlueCoat).contains(alpha2))
        << alpha2;
  // SmartFilter in Pakistan; Netsweeper and Websense in US networks.
  EXPECT_TRUE(countries.at(ProductKind::kSmartFilter).contains("PK"));
  EXPECT_TRUE(countries.at(ProductKind::kNetsweeper).contains("US"));
  EXPECT_EQ(countries.at(ProductKind::kWebsense),
            (std::set<std::string>{"US"}));
}

// ------------------------------------------------------ Option variants ----

TEST(PaperWorldOptionsTest, HiddenSurfacesDefeatScanning) {
  PaperWorld paper(kPaperSeed, {.hideExternalSurfaces = true});
  const auto geo = paper.world().buildGeoDatabase();
  const auto index = scan::crawlStream(paper.world(), geo);
  core::Identifier identifier(paper.world(), index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, paper.world().buildAsnDatabase());
  for (const auto kind : filters::allProducts()) {
    for (const auto& inst : identifier.identify(kind)) {
      // Nothing found may correspond to a real (now hidden) installation —
      // only vendor-operated infrastructure remains discoverable.
      for (const auto& truth : paper.groundTruth())
        EXPECT_NE(inst.ip, truth.serviceIp);
    }
  }
}

TEST(PaperWorldOptionsTest, DisregardedSubmitterKillsConfirmation) {
  PaperWorld paper(kPaperSeed, {.disregardSubmitter = true});
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());
  const auto& bayanat = paper.caseStudies()[0];
  advanceClockTo(paper.world(), bayanat.startDate);
  const auto result = confirmer.run(bayanat.config);
  EXPECT_FALSE(result.confirmed);
  EXPECT_EQ(result.submittedBlocked, 0);
}

}  // namespace
}  // namespace urlf::scenarios
