#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "filters/bluecoat.h"
#include "filters/category.h"
#include "filters/category_db.h"
#include "filters/netsweeper.h"
#include "filters/registry.h"
#include "filters/smartfilter.h"
#include "filters/vendor.h"
#include "filters/websense.h"
#include "http/html.h"
#include "simnet/hosting.h"
#include "simnet/transport.h"

namespace urlf::filters {
namespace {

net::IpPrefix prefix(const char* text) {
  return net::IpPrefix::parse(text).value();
}
net::Url url(const char* text) { return net::Url::parse(text).value(); }

// ----------------------------------------------------------- Category ----

TEST(CategoryTest, NetsweeperSchemeHas66CategoriesAndCatno23IsPornography) {
  const auto scheme = netsweeperScheme();
  EXPECT_EQ(scheme.size(), 66u);
  EXPECT_EQ(scheme.byId(23)->name, "Pornography");
  // The five categories found blocked in YemenNet (§4.4) all exist.
  for (const char* name : {"Adult Image", "Phishing", "Pornography",
                           "Proxy Anonymizer", "Search Keywords"})
    EXPECT_TRUE(scheme.byName(name)) << name;
}

TEST(CategoryTest, SchemesHaveTheCaseStudyCategories) {
  EXPECT_TRUE(smartFilterScheme().byName("Anonymizers"));
  EXPECT_TRUE(smartFilterScheme().byName("Pornography"));
  EXPECT_TRUE(blueCoatScheme().byName("Proxy Avoidance"));
  EXPECT_TRUE(websenseScheme().byName("Proxy Avoidance"));
}

TEST(CategoryTest, ByNameIsCaseInsensitive) {
  EXPECT_EQ(smartFilterScheme().byName("anonymizers")->id,
            smartFilterScheme().byName("ANONYMIZERS")->id);
}

TEST(CategoryTest, UnknownLookups) {
  const auto scheme = smartFilterScheme();
  EXPECT_FALSE(scheme.byId(999));
  EXPECT_FALSE(scheme.byName("no-such"));
  EXPECT_EQ(scheme.nameOf(999), "category-999");
}

TEST(CategoryTest, SchemeIdsAreUnique) {
  for (const auto kind : allProducts()) {
    const auto scheme = schemeFor(kind);
    std::set<CategoryId> ids;
    for (const auto& category : scheme.categories())
      EXPECT_TRUE(ids.insert(category.id).second)
          << toString(kind) << " duplicate id " << category.id;
  }
}

TEST(CategoryTest, ProductMetadata) {
  EXPECT_EQ(toString(ProductKind::kNetsweeper), "Netsweeper");
  EXPECT_EQ(vendorHeadquarters(ProductKind::kNetsweeper), "Guelph, ON, Canada");
  EXPECT_EQ(vendorCompany(ProductKind::kSmartFilter), "McAfee");
  EXPECT_EQ(allProducts().size(), 4u);
}

// --------------------------------------------------- CategoryDatabase ----

TEST(CategoryDbTest, HostGranularityCoversAllPaths) {
  CategoryDatabase db;
  db.addHost("example.info", 1);
  EXPECT_EQ(db.categorize(url("http://example.info/")).count(1), 1u);
  EXPECT_EQ(db.categorize(url("http://example.info/benign.jpg")).count(1), 1u);
  EXPECT_EQ(db.categorize(url("http://other.info/")).size(), 0u);
}

TEST(CategoryDbTest, SubdomainFallsBackToRegistrableDomain) {
  CategoryDatabase db;
  db.addHost("example.info", 7);
  EXPECT_EQ(db.categorize(url("http://www.example.info/")).count(7), 1u);
}

TEST(CategoryDbTest, UrlGranularityIsExact) {
  CategoryDatabase db;
  db.addUrl(url("http://example.info/page"), 3);
  EXPECT_EQ(db.categorize(url("http://example.info/page")).count(3), 1u);
  EXPECT_TRUE(db.categorize(url("http://example.info/other")).empty());
}

TEST(CategoryDbTest, MultipleCategoriesUnion) {
  CategoryDatabase db;
  db.addHost("example.info", 1);
  db.addHost("example.info", 2);
  db.addUrl(url("http://example.info/"), 3);
  const auto categories = db.categorize(url("http://example.info/"));
  EXPECT_EQ(categories, (std::set<CategoryId>{1, 2, 3}));
}

TEST(CategoryDbTest, RemoveHost) {
  CategoryDatabase db;
  db.addHost("example.info", 1);
  db.removeHost("example.info");
  EXPECT_FALSE(db.isCategorized(url("http://example.info/")));
}

TEST(CategoryDbTest, HostLookupIsCaseInsensitive) {
  CategoryDatabase db;
  db.addHost("Example.INFO", 1);
  EXPECT_EQ(db.hostCategories("example.info").count(1), 1u);
}

TEST(CategoryDbTest, EntryCount) {
  CategoryDatabase db;
  db.addHost("a.com", 1);
  db.addHost("b.com", 1);
  db.addUrl(url("http://a.com/x"), 2);
  EXPECT_EQ(db.entryCount(), 3u);
}

TEST(CategoryDbTest, AsOfHonoursEntryTimes) {
  CategoryDatabase db;
  db.addHost("old.com", 1, util::SimTime{100});
  db.addHost("new.com", 1, util::SimTime{500});
  db.addUrl(url("http://old.com/x"), 2, util::SimTime{300});

  EXPECT_EQ(db.categorizeAsOf(url("http://old.com/"), util::SimTime{99}).size(),
            0u);
  EXPECT_EQ(
      db.categorizeAsOf(url("http://old.com/"), util::SimTime{100}).count(1),
      1u);
  EXPECT_EQ(db.categorizeAsOf(url("http://old.com/x"), util::SimTime{200}),
            (std::set<CategoryId>{1}));
  EXPECT_EQ(db.categorizeAsOf(url("http://old.com/x"), util::SimTime{300}),
            (std::set<CategoryId>{1, 2}));
  EXPECT_TRUE(
      db.categorizeAsOf(url("http://new.com/"), util::SimTime{499}).empty());
  // The untimed lookup sees everything.
  EXPECT_EQ(db.categorize(url("http://new.com/")).count(1), 1u);
}

TEST(CategoryDbTest, ReAddingKeepsEarliestTime) {
  CategoryDatabase db;
  db.addHost("x.com", 1, util::SimTime{200});
  db.addHost("x.com", 1, util::SimTime{900});  // later duplicate
  EXPECT_EQ(db.categorizeAsOf(url("http://x.com/"), util::SimTime{250}).count(1),
            1u);
}

// -------------------------------------------------------------- World ----

/// Fixture with a world, an ISP with a field vantage, an origin hosting
/// provider, and helpers to deploy any product.
class FiltersFixture : public ::testing::Test {
 protected:
  FiltersFixture() : world(99) {
    world.createAs(100, "ISP-AS", "Test ISP", "AE", {prefix("10.0.0.0/16")});
    world.createAs(200, "HOST-AS", "Hosting", "US", {prefix("20.0.0.0/16")});
    world.createAs(300, "VENDOR-AS", "Vendor infra", "US",
                   {prefix("30.0.0.0/16")});
    isp = &world.createIsp("Test ISP", "AE", {100});
    field = &world.createVantage("field", "AE", isp);
    lab = &world.createVantage("lab", "CA", nullptr);
    hosting = std::make_unique<simnet::HostingProvider>(world, 200);
  }

  /// Fetch from the field vantage, following redirects.
  simnet::FetchResult fieldFetch(const std::string& urlText) {
    simnet::Transport transport(world);
    return transport.fetchUrl(*field, urlText);
  }
  /// Fetch from the field vantage without following redirects.
  simnet::FetchResult fieldFetchRaw(const std::string& urlText) {
    simnet::Transport transport(world);
    return transport.fetchUrl(*field, urlText, {.followRedirects = false});
  }

  simnet::World world;
  simnet::Isp* isp = nullptr;
  simnet::VantagePoint* field = nullptr;
  simnet::VantagePoint* lab = nullptr;
  std::unique_ptr<simnet::HostingProvider> hosting;
};

// -------------------------------------------------------------- Vendor ----

TEST_F(FiltersFixture, SubmissionLifecycle) {
  Vendor vendor(ProductKind::kSmartFilter, world);
  const auto domain = hosting->createFreshDomain(
      simnet::ContentProfile::kGlypeProxy);
  const auto anonymizers = vendor.scheme().byName("Anonymizers")->id;

  const int ticket = vendor.submitUrl(url(("http://" + domain.hostname + "/")
                                              .c_str()),
                                      anonymizers, "tester@example.org");
  EXPECT_EQ(ticket, 1);
  ASSERT_EQ(vendor.submissions().size(), 1u);
  EXPECT_EQ(vendor.submissions()[0].state, Submission::State::kPending);
  EXPECT_FALSE(vendor.masterDb().isCategorized(
      url(("http://" + domain.hostname + "/").c_str())));

  // Not yet reviewed after 2 days.
  vendor.processUntil(world.now() + util::daysToHours(2));
  EXPECT_EQ(vendor.submissions()[0].state, Submission::State::kPending);

  // Reviewed within the 3-5 day window.
  vendor.processUntil(world.now() + util::daysToHours(5));
  EXPECT_EQ(vendor.submissions()[0].state, Submission::State::kAccepted);
  EXPECT_EQ(vendor.masterDb()
                .categorize(url(("http://" + domain.hostname + "/").c_str()))
                .count(anonymizers),
            1u);
}

TEST_F(FiltersFixture, SubmissionVerificationRejectsMismatchedContent) {
  // A benign site submitted as "Pornography" does not classify -> rejected.
  Vendor vendor(ProductKind::kSmartFilter, world);
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  vendor.submitUrl(url(("http://" + domain.hostname + "/").c_str()),
                   vendor.scheme().byName("Pornography")->id, "t@example.org");
  vendor.processUntil(world.now() + util::daysToHours(6));
  EXPECT_EQ(vendor.submissions()[0].state, Submission::State::kRejected);
  EXPECT_FALSE(vendor.masterDb().isCategorized(
      url(("http://" + domain.hostname + "/").c_str())));
}

TEST_F(FiltersFixture, ReviewerOverridesWrongSuggestedCategory) {
  // A proxy site submitted as "Pornography": the reviewer's classifier sees
  // a proxy and files it under Anonymizers instead.
  Vendor vendor(ProductKind::kSmartFilter, world);
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.submitUrl(url(("http://" + domain.hostname + "/").c_str()),
                   vendor.scheme().byName("Pornography")->id, "t@example.org");
  vendor.processUntil(world.now() + util::daysToHours(6));
  ASSERT_EQ(vendor.submissions()[0].state, Submission::State::kAccepted);
  const auto categories = vendor.masterDb().categorize(
      url(("http://" + domain.hostname + "/").c_str()));
  EXPECT_EQ(categories.count(vendor.scheme().byName("Anonymizers")->id), 1u);
  EXPECT_EQ(categories.count(vendor.scheme().byName("Pornography")->id), 0u);
}

TEST_F(FiltersFixture, DisregardedSubmitterIsRejected) {
  Vendor vendor(ProductKind::kNetsweeper, world);
  vendor.disregardSubmitter("suspicious@example.org");
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.submitUrl(url(("http://" + domain.hostname + "/").c_str()),
                   vendor.scheme().byName("Proxy Anonymizer")->id,
                   "suspicious@example.org");
  vendor.processUntil(world.now() + util::daysToHours(6));
  EXPECT_EQ(vendor.submissions()[0].state, Submission::State::kRejected);
  EXPECT_EQ(vendor.submissions()[0].note, "submitter disregarded");
}

TEST_F(FiltersFixture, DisregardedHostingAsnIsRejected) {
  Vendor vendor(ProductKind::kNetsweeper, world);
  vendor.disregardHostingAsn(200);  // our hosting provider's AS
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.submitUrl(url(("http://" + domain.hostname + "/").c_str()),
                   vendor.scheme().byName("Proxy Anonymizer")->id,
                   "fresh-identity@example.org");
  vendor.processUntil(world.now() + util::daysToHours(6));
  EXPECT_EQ(vendor.submissions()[0].state, Submission::State::kRejected);
  EXPECT_EQ(vendor.submissions()[0].note, "hosting provider disregarded");
}

TEST_F(FiltersFixture, QueueCategorizationEventuallyCategorizes) {
  VendorConfig config;
  config.queueLatencyHours = 48;
  config.queueCategorizeProbability = 1.0;
  Vendor vendor(ProductKind::kNetsweeper, world, config);
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  const auto target = url(("http://" + domain.hostname + "/").c_str());

  vendor.queueForCategorization(target, world.now());
  EXPECT_EQ(vendor.pendingQueueSize(), 1u);
  // Duplicate queueing of the same host is ignored.
  vendor.queueForCategorization(target, world.now());
  EXPECT_EQ(vendor.pendingQueueSize(), 1u);

  vendor.processUntil(world.now() + 47);
  EXPECT_FALSE(vendor.masterDb().isCategorized(target));
  vendor.processUntil(world.now() + 49);
  EXPECT_TRUE(vendor.masterDb().isCategorized(target));
  EXPECT_EQ(vendor.pendingQueueSize(), 0u);
}

/// What one run of the vendor-queue script left behind.
struct VendorScriptOutcome {
  std::string pendingAfterEachCall;  ///< pendingQueueSize after each call
  std::string final;  ///< submissions, master DB and queue at the end
};

/// Interleave submissions and Netsweeper-style queueing at mixed due times
/// and drive processUntil through every due time. With `idleCalls`, each
/// due time d is also visited at d-1, twice at d and at d+1, and the script
/// starts with a call that has nothing due; without, each due time is
/// visited once. Acceptance and queue drops are coin flips, so a call that
/// drew from the vendor's RNG with nothing due would shift every later
/// outcome.
VendorScriptOutcome runVendorQueueScript(bool idleCalls) {
  simnet::World world(99);
  world.createAs(200, "HOST-AS", "Hosting", "US",
                 {net::IpPrefix::parse("20.0.0.0/16").value()});
  simnet::HostingProvider hosting(world, 200);
  VendorConfig config;
  config.acceptProbability = 0.5;
  config.queueLatencyHours = 48;
  config.queueCategorizeProbability = 0.5;
  Vendor vendor(ProductKind::kNetsweeper, world, config);
  const auto proxyId = vendor.scheme().byName("Proxy Anonymizer")->id;
  const auto pornId = vendor.scheme().byName("Pornography")->id;

  std::vector<net::Url> hosts;
  const auto fresh = [&](simnet::ContentProfile profile) {
    hosts.push_back(
        url(("http://" + hosting.createFreshDomain(profile).hostname + "/")
                .c_str()));
    return hosts.back();
  };
  std::vector<util::SimTime> dues;
  const auto queue = [&](const net::Url& target, util::SimTime now) {
    const auto before = vendor.pendingQueueSize();
    vendor.queueForCategorization(target, now);
    if (vendor.pendingQueueSize() != before)
      dues.push_back(now + config.queueLatencyHours);
  };

  VendorScriptOutcome out;
  const auto process = [&](util::SimTime now) {
    vendor.processUntil(now);
    out.pendingAfterEachCall += std::to_string(vendor.pendingQueueSize());
    out.pendingAfterEachCall += ',';
  };
  // Visit every due time up to `until`, in order, then forget them.
  const auto drive = [&](util::SimTime until) {
    for (const auto& s : vendor.submissions())
      if (s.state == Submission::State::kPending) dues.push_back(s.reviewAt);
    std::sort(dues.begin(), dues.end());
    dues.erase(std::unique(dues.begin(), dues.end()), dues.end());
    for (const auto due : dues) {
      if (due > until) continue;
      if (idleCalls) process(due - 1);
      process(due);
      if (idleCalls) {
        process(due);
        process(due + 1);
      }
    }
    std::erase_if(dues, [&](util::SimTime due) { return due <= until; });
  };

  const auto t0 = world.now();
  if (idleCalls) process(t0);
  const auto proxyA = fresh(simnet::ContentProfile::kGlypeProxy);
  vendor.submitUrl(proxyA, proxyId, "a@example.org");
  const auto benign = fresh(simnet::ContentProfile::kBenign);
  vendor.submitUrl(benign, proxyId, "b@example.org");
  const auto queuedA = fresh(simnet::ContentProfile::kGlypeProxy);
  queue(queuedA, t0);
  queue(queuedA, t0 + 3);  // duplicate host: ignored
  const auto queuedB = fresh(simnet::ContentProfile::kAdultImage);
  queue(queuedB, t0 + 30);
  world.clock().advanceHours(10);
  const auto proxyB = fresh(simnet::ContentProfile::kGlypeProxy);
  vendor.submitUrl(proxyB, pornId, "c@example.org");
  const auto adult = fresh(simnet::ContentProfile::kAdultImage);
  vendor.submitUrl(adult, pornId, "d@example.org");
  const auto queuedC = fresh(simnet::ContentProfile::kBenign);
  queue(queuedC, t0 + 10);
  drive(t0 + 90);

  // Second wave while the first is part-way through review.
  world.clock().advanceHours(60);
  const auto proxyC = fresh(simnet::ContentProfile::kGlypeProxy);
  vendor.submitUrl(proxyC, proxyId, "e@example.org");
  vendor.submitUrl(fresh(simnet::ContentProfile::kNews), proxyId,
                   "f@example.org");
  queue(queuedA, t0 + 70);  // re-queued only if its first crawl was dropped
  queue(queuedB, t0 + 71);
  queue(fresh(simnet::ContentProfile::kGlypeProxy), t0 + 72);
  queue(fresh(simnet::ContentProfile::kAdultImage), t0 + 100);
  queue(proxyA, t0 + 101);  // already categorized if its review accepted it
  drive(t0 + 1000);

  std::ostringstream final;
  for (const auto& s : vendor.submissions())
    final << s.ticket << ':' << static_cast<int>(s.state) << ':'
          << s.suggestedCategory << ':' << s.note << '\n';
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    final << 'h' << i << '=';
    for (const auto category : vendor.masterDb().categorize(hosts[i]))
      final << category << ';';
    final << '\n';
  }
  final << "pending=" << vendor.pendingQueueSize() << '\n';
  out.final = final.str();
  return out;
}

TEST(VendorQueueTest, InterleavedDueTimesPinnedAndIdleCallsDrawNothing) {
  const auto dense = runVendorQueueScript(/*idleCalls=*/true);
  const auto sparse = runVendorQueueScript(/*idleCalls=*/false);
  EXPECT_EQ(dense.final, sparse.final);
  EXPECT_EQ(dense.final,
            "1:1:43:added to database\n"
            "2:2:43:content did not classify\n"
            "3:2:43:rejected by reviewer\n"
            "4:1:23:added to database\n"
            "5:1:43:added to database\n"
            "6:1:18:added to database\n"
            "h0=43;\nh1=\nh2=43;\nh3=23;\nh4=\nh5=23;\nh6=\nh7=43;\nh8=18;\n"
            "h9=\nh10=\npending=0\n");
  EXPECT_EQ(dense.pendingAfterEachCall,
            "0,3,2,2,2,2,1,1,1,1,0,0,0,2,2,2,2,2,2,2,2,2,1,1,1,1,1,1,1,1,1,1,"
            "0,0,0,0,0,0,0,0,0,");
  EXPECT_EQ(sparse.pendingAfterEachCall, "2,1,0,2,2,1,1,1,0,0,");
}

TEST_F(FiltersFixture, ClassifyContentMarkers) {
  Vendor vendor(ProductKind::kSmartFilter, world);
  EXPECT_EQ(vendor.classifyContent("... powered by Glype ..."),
            vendor.scheme().byName("Anonymizers")->id);
  EXPECT_EQ(vendor.classifyContent("<img alt=\"adult content\">"),
            vendor.scheme().byName("Pornography")->id);
  EXPECT_FALSE(vendor.classifyContent("nothing interesting"));
}

// -------------------------------------------------- SmartFilter block ----

TEST_F(FiltersFixture, SmartFilterBlocksCategorizedHostWithSignature) {
  Vendor vendor(ProductKind::kSmartFilter, world);
  FilterPolicy policy;
  policy.blockedCategories = {vendor.scheme().byName("Pornography")->id};
  auto& deployment = world.makeMiddlebox<SmartFilterDeployment>(
      "Test SmartFilter", vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kAdultImage);
  vendor.masterDb().addHost(domain.hostname,
                            vendor.scheme().byName("Pornography")->id);

  const auto result = fieldFetch("http://" + domain.hostname + "/");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 403);
  EXPECT_TRUE(result.response->headers.anyValueContains("McAfee Web Gateway"));
  EXPECT_NE(http::extractTitle(result.response->body)
                .find("McAfee Web Gateway"),
            std::string::npos);
  EXPECT_EQ(deployment.requestsBlocked(), 1u);

  // Host granularity (§4.6): the benign file on the same host is blocked too.
  const auto benign = fieldFetch("http://" + domain.hostname + "/benign.jpg");
  EXPECT_EQ(benign.response->statusCode, 403);
}

TEST_F(FiltersFixture, SmartFilterStripBrandingRemovesSignature) {
  Vendor vendor(ProductKind::kSmartFilter, world);
  FilterPolicy policy;
  policy.blockedCategories = {1};
  policy.stripBranding = true;
  auto& deployment = world.makeMiddlebox<SmartFilterDeployment>(
      "Stripped SmartFilter", vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kAdultImage);
  vendor.masterDb().addHost(domain.hostname, 1);

  const auto result = fieldFetch("http://" + domain.hostname + "/");
  EXPECT_EQ(result.response->statusCode, 403);
  EXPECT_FALSE(result.response->headers.anyValueContains("McAfee Web Gateway"));
  EXPECT_EQ(result.response->body.find("McAfee"), std::string::npos);
}

TEST_F(FiltersFixture, UncategorizedTrafficPasses) {
  Vendor vendor(ProductKind::kSmartFilter, world);
  FilterPolicy policy;
  policy.blockedCategories = {1, 2};
  auto& deployment = world.makeMiddlebox<SmartFilterDeployment>(
      "Test SmartFilter", vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  const auto result = fieldFetch("http://" + domain.hostname + "/");
  EXPECT_EQ(result.response->statusCode, 200);
  EXPECT_EQ(deployment.requestsBlocked(), 0u);
  EXPECT_EQ(deployment.requestsSeen(), 1u);
}

TEST_F(FiltersFixture, CategorizedButUnblockedCategoryPasses) {
  // Challenge 1 (§4.3): Saudi Arabia categorizes proxies but does not block
  // the category.
  Vendor vendor(ProductKind::kSmartFilter, world);
  FilterPolicy policy;
  policy.blockedCategories = {vendor.scheme().byName("Pornography")->id};
  auto& deployment = world.makeMiddlebox<SmartFilterDeployment>(
      "Saudi-style SmartFilter", vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.masterDb().addHost(domain.hostname,
                            vendor.scheme().byName("Anonymizers")->id);
  const auto result = fieldFetch("http://" + domain.hostname + "/");
  EXPECT_EQ(result.response->statusCode, 200);
}

TEST_F(FiltersFixture, SmartFilterExternalSurfaces) {
  Vendor vendor(ProductKind::kSmartFilter, world);
  auto& deployment = world.makeMiddlebox<SmartFilterDeployment>(
      "Test SmartFilter", vendor, FilterPolicy{});
  deployment.installExternalSurfaces(world, 100);
  EXPECT_NE(world.externalEndpointAt(deployment.serviceIp(), 4711), nullptr);
  EXPECT_NE(world.externalEndpointAt(deployment.serviceIp(), 80), nullptr);
}

TEST_F(FiltersFixture, HiddenDeploymentHasNoExternalSurfaces) {
  Vendor vendor(ProductKind::kSmartFilter, world);
  FilterPolicy policy;
  policy.externallyVisible = false;
  auto& deployment = world.makeMiddlebox<SmartFilterDeployment>(
      "Hidden SmartFilter", vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  EXPECT_EQ(world.externalEndpointAt(deployment.serviceIp(), 4711), nullptr);
  EXPECT_EQ(world.externalEndpointAt(deployment.serviceIp(), 80), nullptr);
  // Still bound internally, just not visible to scanners.
  EXPECT_NE(world.endpointAt(deployment.serviceIp(), 4711), nullptr);
}

// ----------------------------------------------------- Blue Coat ----------

TEST_F(FiltersFixture, BlueCoatBlockRedirectsToCfauth) {
  Vendor vendor(ProductKind::kBlueCoat, world);
  vendor.installInfrastructure(300);
  FilterPolicy policy;
  policy.blockedCategories = {vendor.scheme().byName("Proxy Avoidance")->id};
  auto& deployment = world.makeMiddlebox<BlueCoatProxySG>("Test ProxySG",
                                                          vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.masterDb().addHost(domain.hostname,
                            vendor.scheme().byName("Proxy Avoidance")->id);

  const auto raw = fieldFetchRaw("http://" + domain.hostname + "/");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.response->statusCode, 302);
  const auto location = raw.response->location();
  ASSERT_TRUE(location);
  EXPECT_NE(location->find("www.cfauth.com"), std::string::npos);
  EXPECT_NE(location->find("cfru="), std::string::npos);

  // Following the redirect lands on the vendor's hosted block service.
  const auto followed = fieldFetch("http://" + domain.hostname + "/");
  ASSERT_TRUE(followed.ok());
  EXPECT_NE(http::extractTitle(followed.response->body).find("Blue Coat"),
            std::string::npos);
}

TEST_F(FiltersFixture, BlueCoatProxyAnnotatesAllowedTraffic) {
  Vendor vendor(ProductKind::kBlueCoat, world);
  auto& deployment = world.makeMiddlebox<BlueCoatProxySG>("Test ProxySG",
                                                          vendor,
                                                          FilterPolicy{});
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  const auto result = fieldFetch("http://" + domain.hostname + "/");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.response->headers.contains("Via"));
  EXPECT_TRUE(result.response->headers.contains("X-Cache"));
}

TEST_F(FiltersFixture, TandemEngineOverridesOwnDatabase) {
  // Challenge 3 (§4.5): ProxySG with SmartFilter as the engine. Blue Coat
  // categorizations have no effect; SmartFilter categorizations block.
  Vendor blueCoat(ProductKind::kBlueCoat, world);
  blueCoat.installInfrastructure(300);
  Vendor smartFilter(ProductKind::kSmartFilter, world);

  FilterPolicy sfPolicy;
  sfPolicy.blockedCategories = {
      smartFilter.scheme().byName("Anonymizers")->id};
  auto& engine = world.makeMiddlebox<SmartFilterDeployment>("Engine SF",
                                                            smartFilter,
                                                            sfPolicy);
  engine.installExternalSurfaces(world, 100);

  FilterPolicy bcPolicy;
  bcPolicy.blockedCategories = {
      blueCoat.scheme().byName("Proxy Avoidance")->id};
  auto& proxy = world.makeMiddlebox<BlueCoatProxySG>("Tandem ProxySG",
                                                     blueCoat, bcPolicy);
  proxy.installExternalSurfaces(world, 100);
  proxy.setFilteringEngine(engine);
  isp->attachMiddlebox(proxy);

  const auto bcOnly =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  blueCoat.masterDb().addHost(bcOnly.hostname,
                              blueCoat.scheme().byName("Proxy Avoidance")->id);
  const auto sfOnly =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  smartFilter.masterDb().addHost(
      sfOnly.hostname, smartFilter.scheme().byName("Anonymizers")->id);

  // Blue Coat's own DB is ignored in tandem mode.
  EXPECT_EQ(fieldFetch("http://" + bcOnly.hostname + "/").response->statusCode,
            200);
  // The engine's DB governs, and the block page is SmartFilter's.
  const auto blocked = fieldFetch("http://" + sfOnly.hostname + "/");
  EXPECT_EQ(blocked.response->statusCode, 403);
  EXPECT_TRUE(blocked.response->headers.anyValueContains("McAfee Web Gateway"));
}

// ----------------------------------------------------- Netsweeper ---------

class NetsweeperFixture : public FiltersFixture {
 protected:
  NetsweeperFixture() : vendor(ProductKind::kNetsweeper, world) {
    vendor.installInfrastructure(300);
    FilterPolicy policy;
    policy.blockedCategories = {23, 43};  // Pornography, Proxy Anonymizer
    policy.queueAccessedUrls = true;
    deployment = &world.makeMiddlebox<NetsweeperDeployment>("Test Netsweeper",
                                                            vendor, policy);
    deployment->installExternalSurfaces(world, 100);
    isp->attachMiddlebox(*deployment);
  }

  Vendor vendor;
  NetsweeperDeployment* deployment = nullptr;
};

TEST_F(NetsweeperFixture, BlockRedirectsToWebadminDeny) {
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.masterDb().addHost(domain.hostname, 43);

  const auto raw = fieldFetchRaw("http://" + domain.hostname + "/");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.response->statusCode, 302);
  const auto location = std::string(raw.response->location().value());
  EXPECT_NE(location.find(":8080/webadmin/deny"), std::string::npos);
  EXPECT_NE(location.find("dpruri="), std::string::npos);

  // The deny page itself is served from the box and reachable in-country.
  const auto followed = fieldFetch("http://" + domain.hostname + "/");
  ASSERT_TRUE(followed.ok());
  EXPECT_EQ(followed.response->statusCode, 403);
  EXPECT_NE(followed.response->body.find("Web Page Blocked"),
            std::string::npos);
  EXPECT_TRUE(followed.response->headers.anyValueContains("Netsweeper"));
}

TEST_F(NetsweeperFixture, DenyPageEchoesBlockedUrl) {
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.masterDb().addHost(domain.hostname, 43);
  const auto followed = fieldFetch("http://" + domain.hostname + "/");
  EXPECT_NE(followed.response->body.find(domain.hostname), std::string::npos);
}

TEST_F(NetsweeperFixture, AccessQueuesUncategorizedUrls) {
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  EXPECT_EQ(vendor.pendingQueueSize(), 0u);
  (void)fieldFetch("http://" + domain.hostname + "/");
  EXPECT_EQ(vendor.pendingQueueSize(), 1u);
}

TEST_F(NetsweeperFixture, WebadminConsoleSignature) {
  simnet::Transport transport(world);
  const auto console = transport.fetchUrl(
      *lab, "http://" + deployment->serviceIp().toString() + ":8080/webadmin/");
  ASSERT_TRUE(console.ok());
  EXPECT_NE(http::extractTitle(console.response->body).find("Netsweeper"),
            std::string::npos);

  // "/" redirects into /webadmin/.
  const auto root = transport.fetchUrl(
      *lab, "http://" + deployment->serviceIp().toString() + ":8080/",
      {.followRedirects = false});
  EXPECT_EQ(root.response->statusCode, 302);
  EXPECT_EQ(root.response->location().value(), "/webadmin/");
}

TEST_F(NetsweeperFixture, CategoryProbePathParser) {
  EXPECT_EQ(NetsweeperDeployment::parseCategoryProbePath("/category/catno/23"),
            23);
  EXPECT_EQ(NetsweeperDeployment::parseCategoryProbePath("/category/catno/1"),
            1);
  EXPECT_FALSE(NetsweeperDeployment::parseCategoryProbePath("/category/catno/"));
  EXPECT_FALSE(NetsweeperDeployment::parseCategoryProbePath("/other"));
  EXPECT_FALSE(
      NetsweeperDeployment::parseCategoryProbePath("/category/catno/xx"));
}

TEST_F(NetsweeperFixture, DenyPageTestsBlockedVsUnblockedCategory) {
  // Blocked category -> deny page; unblocked -> vendor origin answers.
  const auto blocked =
      fieldFetch("http://denypagetests.netsweeper.com/category/catno/23");
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked.response->statusCode, 403);

  const auto open =
      fieldFetch("http://denypagetests.netsweeper.com/category/catno/16");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.response->statusCode, 200);
  EXPECT_NE(open.response->body.find("not being filtered"), std::string::npos);
}

TEST_F(NetsweeperFixture, SyncCoverageExcludesSomeHosts) {
  deployment->policy().syncCoverage = 0.5;
  deployment->policy().syncSalt = 1;
  int included = 0;
  constexpr int kHosts = 200;
  for (int i = 0; i < kHosts; ++i) {
    const std::string host = "host" + std::to_string(i) + ".example";
    vendor.masterDb().addHost(host, 43);
    const auto categories = deployment->effectiveCategories(
        url(("http://" + host + "/").c_str()), world.now());
    if (categories.count(43) == 1) ++included;
  }
  EXPECT_NEAR(static_cast<double>(included) / kHosts, 0.5, 0.12);
}

TEST_F(NetsweeperFixture, UpdateLagDelaysEnforcement) {
  // §2.1: products have a subscription/update component. A deployment with
  // a 48h update lag blocks a newly categorized site only 48h later.
  deployment->policy().updateLagHours = 48;
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.masterDb().addHost(domain.hostname, 43, world.now());

  EXPECT_EQ(fieldFetch("http://" + domain.hostname + "/").response->statusCode,
            200);  // vendor knows, the box does not yet
  world.clock().advanceHours(47);
  EXPECT_EQ(fieldFetch("http://" + domain.hostname + "/").response->statusCode,
            200);
  world.clock().advanceHours(1);
  EXPECT_EQ(fieldFetch("http://" + domain.hostname + "/").response->statusCode,
            403);  // update arrived
}

TEST_F(NetsweeperFixture, FreezeUpdatesIgnoresLaterAdditions) {
  const auto before =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.masterDb().addHost(before.hostname, 43);
  deployment->freezeUpdates();
  const auto after =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor.masterDb().addHost(after.hostname, 43);

  EXPECT_EQ(fieldFetch("http://" + before.hostname + "/").response->statusCode,
            403);
  EXPECT_EQ(fieldFetch("http://" + after.hostname + "/").response->statusCode,
            200);
}

// ------------------------------------------------------- Websense ---------

TEST_F(FiltersFixture, WebsenseBlockRedirectsToPort15871) {
  Vendor vendor(ProductKind::kWebsense, world);
  FilterPolicy policy;
  policy.blockedCategories = {vendor.scheme().byName("Adult Content")->id};
  auto& deployment = world.makeMiddlebox<WebsenseDeployment>("Test Websense",
                                                             vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kAdultImage);
  vendor.masterDb().addHost(domain.hostname,
                            vendor.scheme().byName("Adult Content")->id);

  const auto raw = fieldFetchRaw("http://" + domain.hostname + "/");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.response->statusCode, 302);
  const auto location = std::string(raw.response->location().value());
  EXPECT_NE(location.find(":15871/cgi-bin/blockpage.cgi"), std::string::npos);
  EXPECT_NE(location.find("ws-session="), std::string::npos);

  const auto followed = fieldFetch("http://" + domain.hostname + "/");
  ASSERT_TRUE(followed.ok());
  EXPECT_NE(http::extractTitle(followed.response->body).find("Websense"),
            std::string::npos);
}

TEST_F(FiltersFixture, WebsenseLicenseExhaustionDisablesFiltering) {
  // §4.4: "when the number of users exceeded the number of licenses no
  // content would be filtered".
  Vendor vendor(ProductKind::kWebsense, world);
  FilterPolicy policy;
  policy.blockedCategories = {1};
  auto& deployment = world.makeMiddlebox<WebsenseDeployment>("Overloaded",
                                                             vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);
  // Licenses always exceeded.
  deployment.setLicenseModel({.licenses = 10,
                              .baseUsers = 1000,
                              .peakExtraUsers = 0,
                              .jitter = 0});

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kAdultImage);
  vendor.masterDb().addHost(domain.hostname, 1);
  EXPECT_EQ(fieldFetch("http://" + domain.hostname + "/").response->statusCode,
            200);

  // Plenty of licenses: filtering is active again.
  deployment.setLicenseModel({.licenses = 100000,
                              .baseUsers = 10,
                              .peakExtraUsers = 0,
                              .jitter = 0});
  EXPECT_NE(fieldFetch("http://" + domain.hostname + "/").response->statusCode,
            200);
}

TEST_F(FiltersFixture, WebsenseDiurnalLoadPeaksInAfternoon) {
  Vendor vendor(ProductKind::kWebsense, world);
  auto& deployment = world.makeMiddlebox<WebsenseDeployment>("Diurnal", vendor,
                                                             FilterPolicy{});
  deployment.setLicenseModel({.licenses = 1000,
                              .baseUsers = 500,
                              .peakExtraUsers = 600,
                              .jitter = 0});
  util::Rng rng(1);
  const int night = deployment.activeUsers(util::SimTime{3}, rng);
  const int afternoon = deployment.activeUsers(util::SimTime{15}, rng);
  EXPECT_GT(afternoon, night);
}

TEST_F(FiltersFixture, OfflineProbabilityBypassesSomeRequests) {
  // Challenge 2: a deployment that is offline ~half the time blocks only
  // about half of the requests for a blocked site.
  Vendor vendor(ProductKind::kSmartFilter, world);
  FilterPolicy policy;
  policy.blockedCategories = {1};
  policy.offlineProbability = 0.5;
  auto& deployment = world.makeMiddlebox<SmartFilterDeployment>("Flaky",
                                                                vendor, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kAdultImage);
  vendor.masterDb().addHost(domain.hostname, 1);

  int blocked = 0;
  constexpr int kRuns = 200;
  for (int i = 0; i < kRuns; ++i)
    if (fieldFetch("http://" + domain.hostname + "/").response->statusCode ==
        403)
      ++blocked;
  EXPECT_GT(blocked, kRuns / 4);
  EXPECT_LT(blocked, 3 * kRuns / 4);
}

// ----------------------------------------------------------- Registry ----

TEST_F(FiltersFixture, MakeDeploymentBuildsRightSubclass) {
  Vendor blueCoat(ProductKind::kBlueCoat, world);
  Vendor netsweeper(ProductKind::kNetsweeper, world);
  auto& bc = makeDeployment(world, ProductKind::kBlueCoat, "bc", blueCoat, {});
  auto& ns =
      makeDeployment(world, ProductKind::kNetsweeper, "ns", netsweeper, {});
  EXPECT_NE(dynamic_cast<BlueCoatProxySG*>(&bc), nullptr);
  EXPECT_NE(dynamic_cast<NetsweeperDeployment*>(&ns), nullptr);
  EXPECT_EQ(bc.kind(), ProductKind::kBlueCoat);
  EXPECT_EQ(ns.kind(), ProductKind::kNetsweeper);
}

}  // namespace
}  // namespace urlf::filters
