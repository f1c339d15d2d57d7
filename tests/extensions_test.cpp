// Tests for the §6/§7 extension features: the category scout (automated
// Challenge 1), Netalyzr-style transparent-proxy detection, census-based
// identification, and submission-identity rotation (counter-evasion).
#include <gtest/gtest.h>

#include "core/confirmer.h"
#include "core/identifier.h"
#include "core/proxy_detect.h"
#include "core/scout.h"
#include "scan/serialize.h"
#include "simnet/transport.h"
#include "scenarios/paper_world.h"

namespace urlf {
namespace {

using filters::ProductKind;
using scenarios::PaperWorld;

// ------------------------------------------------------ CategoryScout ----

TEST(CategoryScoutTest, ReproducesChallengeOneInSaudiArabia) {
  // §4.3: "we found Web sites classified as proxies by SmartFilter were
  // accessible in Saudi Arabia ... However, Web sites classified as
  // pornography by SmartFilter are blocked."
  PaperWorld paper;
  core::CategoryScout scout(paper.world());
  const auto uses =
      scout.scout("field-bayanat", "lab-toronto",
                  paper.referenceSites(ProductKind::kSmartFilter));

  bool anonymizersInUse = true;
  bool pornographyInUse = false;
  for (const auto& use : uses) {
    if (use.categoryName == "Anonymizers") anonymizersInUse = use.inUse();
    if (use.categoryName == "Pornography") pornographyInUse = use.inUse();
  }
  EXPECT_FALSE(anonymizersInUse);
  EXPECT_TRUE(pornographyInUse);
}

TEST(CategoryScoutTest, EtisalatEnforcesBothCategories) {
  PaperWorld paper;
  core::CategoryScout scout(paper.world());
  const auto uses =
      scout.scout("field-etisalat", "lab-toronto",
                  paper.referenceSites(ProductKind::kSmartFilter));
  int enforced = 0;
  for (const auto& use : uses) {
    if (use.categoryName == "Anonymizers" || use.categoryName == "Pornography")
      enforced += use.inUse() ? 1 : 0;
  }
  EXPECT_EQ(enforced, 2);
}

TEST(CategoryScoutTest, PickEnforcedCategoryPrefersCandidateOrder) {
  std::vector<core::CategoryUse> uses;
  uses.push_back({1, "Anonymizers", 2, 0});    // not enforced
  uses.push_back({2, "Pornography", 1, 1});    // enforced
  uses.push_back({3, "Gambling", 1, 1});       // enforced
  const auto pick = core::CategoryScout::pickEnforcedCategory(
      uses, {"Anonymizers", "Pornography", "Gambling"});
  ASSERT_TRUE(pick);
  EXPECT_EQ(*pick, "Pornography");
  EXPECT_FALSE(core::CategoryScout::pickEnforcedCategory(
      uses, {"Anonymizers"}));
}

TEST(CategoryScoutTest, ScoutThenConfirmWorkflow) {
  // The full automated §4 workflow: scout which category Bayanat enforces,
  // then run the confirmation under that category.
  PaperWorld paper;
  core::CategoryScout scout(paper.world());
  const auto uses =
      scout.scout("field-bayanat", "lab-toronto",
                  paper.referenceSites(ProductKind::kSmartFilter));
  const auto category = core::CategoryScout::pickEnforcedCategory(
      uses, {"Anonymizers", "Pornography"});
  ASSERT_TRUE(category);
  EXPECT_EQ(*category, "Pornography");

  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());
  core::CaseStudyConfig config;
  config.product = ProductKind::kSmartFilter;
  config.ispName = "Bayanat Al-Oula";
  config.countryAlpha2 = "SA";
  config.fieldVantage = "field-bayanat";
  config.categoryName = *category;
  config.profile = simnet::ContentProfile::kAdultImage;
  config.totalSites = 10;
  config.sitesToSubmit = 5;
  const auto result = confirmer.run(config);
  EXPECT_TRUE(result.confirmed);
}

TEST(CategoryScoutTest, RejectsUnknownVantage) {
  PaperWorld paper;
  core::CategoryScout scout(paper.world());
  EXPECT_THROW((void)scout.scout("nope", "lab-toronto", {}),
               std::invalid_argument);
}

// ------------------------------------------------------ ProxyDetector ----

TEST(ProxyDetectorTest, DetectsProxySgInEtisalatAndOoredoo) {
  PaperWorld paper;
  core::ProxyDetector detector(paper.world());

  for (const char* vantage : {"field-etisalat", "field-ooredoo"}) {
    const auto evidence =
        detector.detect(vantage, "lab-toronto", paper.echoUrl());
    EXPECT_TRUE(evidence.proxyDetected()) << vantage;
    ASSERT_TRUE(evidence.productHint) << vantage;
    EXPECT_EQ(*evidence.productHint, "Blue Coat ProxySG") << vantage;
    EXPECT_FALSE(evidence.addedResponseHeaders.empty()) << vantage;
  }
}

TEST(ProxyDetectorTest, NoProxyEvidenceInNonProxyNetworks) {
  // Du, YemenNet and the Saudi ISPs filter in-path but do not annotate
  // forwarded traffic, so a Netalyzr-style probe sees nothing — precisely
  // why the paper's confirmation method is needed as ground truth (§7).
  PaperWorld paper;
  core::ProxyDetector detector(paper.world());
  for (const char* vantage : {"field-du", "field-bayanat", "field-nournet"}) {
    const auto evidence =
        detector.detect(vantage, "lab-toronto", paper.echoUrl());
    EXPECT_FALSE(evidence.proxyDetected()) << vantage;
    EXPECT_FALSE(evidence.productHint) << vantage;
  }
}

TEST(ProxyDetectorTest, EmptyEvidenceWhenEchoUnreachable) {
  PaperWorld paper;
  core::ProxyDetector detector(paper.world());
  const auto evidence =
      detector.detect("field-du", "lab-toronto", "http://nx.example/");
  EXPECT_FALSE(evidence.proxyDetected());
}

TEST(ProxyDetectorTest, AgreesWithGroundTruthAcrossCaseStudyIsps) {
  // Calibration matrix: proxy evidence iff the ISP's chain contains a
  // ProxySG (the §7 "ground truth" application).
  PaperWorld paper;
  core::ProxyDetector detector(paper.world());
  struct Expectation {
    const char* vantage;
    bool proxyExpected;
  };
  const Expectation expectations[] = {
      {"field-etisalat", true}, {"field-ooredoo", true},
      {"field-du", false},      {"field-yemennet", false},
      {"field-bayanat", false}, {"field-nournet", false},
  };
  for (const auto& [vantage, expected] : expectations) {
    const auto evidence =
        detector.detect(vantage, "lab-toronto", paper.echoUrl());
    EXPECT_EQ(evidence.proxyDetected(), expected) << vantage;
  }
}

// ------------------------------------------- Census-based identification ----

TEST(CensusIdentificationTest, CensusIndexFindsSameInstallations) {
  PaperWorld paper;
  auto& world = paper.world();
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();

  const auto shodan = scan::crawlStream(world, geo);

  // Sweep the product ports plus 80.
  scan::CensusScanner census({80, 4711, 8080, 8082, 15871});
  const auto censusIndex =
      scan::ShardedBannerIndex::fromRecords(census.sweep(world, geo));

  const auto engine = fingerprint::Engine::withBuiltinSignatures();
  core::Identifier fromShodan(world, shodan, engine, geo, whois);
  core::Identifier fromCensus(world, censusIndex, engine, geo, whois);

  for (const auto product : filters::allProducts()) {
    auto ips = [](const std::vector<core::Installation>& installations) {
      std::set<std::uint32_t> out;
      for (const auto& inst : installations) out.insert(inst.ip.value());
      return out;
    };
    EXPECT_EQ(ips(fromShodan.identify(product)),
              ips(fromCensus.identify(product)))
        << filters::toString(product);
  }
}

TEST(PassiveIdentificationTest, MatchesActiveModeOnFullBanners) {
  // With untruncated banners, offline (passive) validation of a scan dump
  // finds the same installations as live WhatWeb probing.
  PaperWorld paper;
  auto& world = paper.world();
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();
  scan::StreamCrawlOptions options;
  options.bodySnippetLimit = 1 << 16;
  const auto index = scan::crawlStream(world, geo, options);
  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, whois);
  for (const auto product : filters::allProducts()) {
    auto ips = [](const std::vector<core::Installation>& installations) {
      std::set<std::uint32_t> out;
      for (const auto& inst : installations) out.insert(inst.ip.value());
      return out;
    };
    EXPECT_EQ(ips(identifier.identify(product)),
              ips(identifier.identifyPassive(product)))
        << filters::toString(product);
  }
}

TEST(PassiveIdentificationTest, WorksOnExportedAndReimportedDumps) {
  PaperWorld paper;
  auto& world = paper.world();
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();
  const auto index = scan::crawlStream(world, geo);

  const auto dump = scan::exportRecords(index.residentRecords());
  const auto imported = scan::importRecords(dump);
  ASSERT_TRUE(imported);
  const auto restored =
      scan::ShardedBannerIndex::fromRecords(std::move(*imported));

  core::Identifier fromLive(world, index,
                            fingerprint::Engine::withBuiltinSignatures(), geo,
                            whois);
  core::Identifier fromDump(world, restored,
                            fingerprint::Engine::withBuiltinSignatures(), geo,
                            whois);
  for (const auto product : filters::allProducts())
    EXPECT_EQ(fromLive.identifyPassive(product).size(),
              fromDump.identifyPassive(product).size())
        << filters::toString(product);
}

TEST(CensusIdentificationTest, ConcatenatedSweepsMergeSources) {
  PaperWorld paper;
  auto& world = paper.world();
  const auto geo = world.buildGeoDatabase();

  scan::CensusScanner ports80({80});
  scan::CensusScanner ports8080({8080});
  auto records = ports80.sweep(world, geo);
  const auto before = scan::ShardedBannerIndex::fromRecords(records).docCount();
  const auto more = ports8080.sweep(world, geo);
  records.insert(records.end(), more.begin(), more.end());
  const auto merged = scan::ShardedBannerIndex::fromRecords(std::move(records));
  EXPECT_GT(merged.docCount(), before);
}

// ---------------------------------------------- HTTP submission portal ----

TEST(SubmissionPortalTest, PortalAnswersOverHttp) {
  PaperWorld paper;
  auto& vendor = paper.vendor(ProductKind::kSmartFilter);
  ASSERT_FALSE(vendor.portalUrl().empty());

  simnet::Transport transport(paper.world());
  auto* lab = paper.world().findVantage("lab-toronto");

  // Landing page lives at the portal root (portalUrl points at /submit).
  const auto portalRoot =
      "http://" + net::Url::parse(vendor.portalUrl())->host() + "/";
  const auto landing = transport.fetchUrl(*lab, portalRoot);
  ASSERT_TRUE(landing.ok());
  EXPECT_EQ(landing.response->statusCode, 200);
  EXPECT_NE(landing.response->body.find("Submit a site"), std::string::npos);

  // A valid submission creates a vendor-side ticket.
  const auto before = vendor.submissions().size();
  const auto submit = transport.fetchUrl(
      *lab, vendor.portalUrl() +
                "?url=http://freeproxyhub.com/&category=2&submitter=x@y.example");
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit.response->statusCode, 200);
  EXPECT_NE(submit.response->body.find("Ticket #"), std::string::npos);
  EXPECT_EQ(vendor.submissions().size(), before + 1);
  EXPECT_EQ(vendor.submissions().back().submitterId, "x@y.example");

  // Malformed submissions are rejected without creating tickets.
  for (const char* bad :
       {"?url=http://x/&category=2",           // missing submitter
        "?url=not-a-url&category=2&submitter=a",
        "?url=http://x/&category=999&submitter=a",
        "?url=http://x/&category=abc&submitter=a"}) {
    const auto result = transport.fetchUrl(*lab, vendor.portalUrl() + bad);
    ASSERT_TRUE(result.ok()) << bad;
    EXPECT_EQ(result.response->statusCode, 400) << bad;
  }
  EXPECT_EQ(vendor.submissions().size(), before + 1);
}

TEST(SubmissionPortalTest, CaseStudyWorksOverThePortal) {
  // The Bayanat row produces the same outcome whether the submission goes
  // through the vendor API or over simulated HTTP to the Web portal.
  PaperWorld paper;
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());
  auto config = paper.caseStudies()[0].config;
  config.submitViaHttpPortal = true;
  scenarios::advanceClockTo(paper.world(), paper.caseStudies()[0].startDate);
  const auto result = confirmer.run(config);
  EXPECT_TRUE(result.confirmed);
  EXPECT_EQ(result.blockedRatio(), "5/5");
  EXPECT_TRUE(result.notes.find("portal submission failed") ==
              std::string::npos)
      << result.notes;
}

TEST(SubmissionPortalTest, EveryVendorHasAPortalInThePaperWorld) {
  PaperWorld paper;
  for (const auto kind : filters::allProducts()) {
    const auto& url = paper.vendor(kind).portalUrl();
    ASSERT_FALSE(url.empty()) << filters::toString(kind);
    const auto parsed = net::Url::parse(url);
    ASSERT_TRUE(parsed);
    EXPECT_TRUE(paper.world().resolve(parsed->host()))
        << filters::toString(kind);
  }
}

// -------------------------------------------------- Counter-evasion ----

TEST(CounterEvasionTest, IdentityRotationDefeatsSubmitterBlacklisting) {
  // §6.2: vendors may disregard our submitter identity; rotating fresh
  // webmail identities restores the methodology.
  PaperWorld paper(scenarios::kPaperSeed, {.disregardSubmitter = true});
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());

  auto config = paper.caseStudies()[0].config;  // SmartFilter / Bayanat
  scenarios::advanceClockTo(paper.world(), paper.caseStudies()[0].startDate);

  // Without rotation: dead.
  const auto blocked = confirmer.run(config);
  EXPECT_FALSE(blocked.confirmed);

  // With rotation: alive again.
  config.submitterPool = {"alias1@webmail.example", "alias2@webmail.example",
                          "alias3@webmail.example"};
  const auto rotated = confirmer.run(config);
  EXPECT_TRUE(rotated.confirmed);
  EXPECT_EQ(rotated.submittedBlocked, 5);
}

TEST(CounterEvasionTest, PopularHostingDefeatsAsnBlacklisting) {
  // §6.2: vendors could disregard sites hosted at our provider; hosting on
  // a popular cloud makes blanket-ignoring too damaging. Model: vendor
  // blacklists a boutique ASN, researcher hosts at the big provider.
  PaperWorld paper;
  auto& world = paper.world();
  world.createAs(64999, "BOUTIQUE-HOST", "Boutique hosting", "US",
                 {net::IpPrefix::parse("203.0.0.0/16").value()});
  simnet::HostingProvider boutique(world, 64999);

  auto& vendor = paper.vendor(ProductKind::kSmartFilter);
  vendor.disregardHostingAsn(64999);

  const auto onBoutique =
      boutique.createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  const auto onCloud = paper.hosting().createFreshDomain(
      simnet::ContentProfile::kGlypeProxy);
  const auto anonymizers = vendor.scheme().byName("Anonymizers")->id;

  vendor.submitUrl(net::Url::parse("http://" + onBoutique.hostname + "/").value(),
                   anonymizers, "x@example.org");
  vendor.submitUrl(net::Url::parse("http://" + onCloud.hostname + "/").value(),
                   anonymizers, "x@example.org");
  world.clock().advanceDays(6);
  vendor.processUntil(world.now());

  ASSERT_EQ(vendor.submissions().size(), 2u);
  EXPECT_EQ(vendor.submissions()[0].state,
            filters::Submission::State::kRejected);
  EXPECT_EQ(vendor.submissions()[1].state,
            filters::Submission::State::kAccepted);
}

}  // namespace
}  // namespace urlf
