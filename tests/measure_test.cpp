#include <gtest/gtest.h>

#include "filters/netsweeper.h"
#include "filters/smartfilter.h"
#include "filters/vendor.h"
#include "measure/blockpage.h"
#include "measure/client.h"
#include "measure/testlist.h"
#include "simnet/hosting.h"

namespace urlf::measure {
namespace {

using filters::ProductKind;

net::IpPrefix prefix(const char* text) {
  return net::IpPrefix::parse(text).value();
}

// ---------------------------------------------------------- Testlists ----

TEST(TestListTest, FortyOniCategoriesAcrossFourThemes) {
  EXPECT_EQ(oniCategories().size(), 40u);
  std::map<Theme, int> perTheme;
  for (const auto& category : oniCategories()) ++perTheme[category.theme];
  EXPECT_EQ(perTheme.size(), 4u);
  for (const auto& [theme, count] : perTheme) EXPECT_EQ(count, 10);
}

TEST(TestListTest, Table4ColumnsExist) {
  for (const char* name :
       {"Media Freedom", "Human Rights", "Political Reform", "LGBT",
        "Religious Criticism", "Minority Groups and Religions"}) {
    EXPECT_TRUE(oniCategoryByName(name)) << name;
  }
}

TEST(TestListTest, CategoryLookupCaseInsensitive) {
  EXPECT_TRUE(oniCategoryByName("lgbt"));
  EXPECT_FALSE(oniCategoryByName("Nonexistent"));
}

TEST(TestListTest, UrlsExtraction) {
  TestList list{"global",
                {{"http://a.example/", "LGBT"}, {"http://b.example/", "VoIP"}}};
  EXPECT_EQ(list.urls(),
            (std::vector<std::string>{"http://a.example/", "http://b.example/"}));
}

// --------------------------------------------------------- Block pages ----

class MeasureFixture : public ::testing::Test {
 protected:
  MeasureFixture() : world(321) {
    world.createAs(100, "ISP-AS", "Field ISP", "AE", {prefix("10.0.0.0/16")});
    world.createAs(200, "HOST-AS", "Hosting", "US", {prefix("20.0.0.0/16")});
    isp = &world.createIsp("Field ISP", "AE", {100});
    field = &world.createVantage("field", "AE", isp);
    lab = &world.createVantage("lab", "CA", nullptr);
    hosting = std::make_unique<simnet::HostingProvider>(world, 200);
  }

  /// Deploy a SmartFilter blocking Pornography and return a blocked URL.
  std::string deploySmartFilterAndBlockedUrl() {
    vendor = std::make_unique<filters::Vendor>(ProductKind::kSmartFilter,
                                               world);
    filters::FilterPolicy policy;
    policy.blockedCategories = {1};
    auto& deployment = world.makeMiddlebox<filters::SmartFilterDeployment>(
        "SF", *vendor, policy);
    deployment.installExternalSurfaces(world, 100);
    isp->attachMiddlebox(deployment);
    const auto domain =
        hosting->createFreshDomain(simnet::ContentProfile::kAdultImage);
    vendor->masterDb().addHost(domain.hostname, 1);
    return "http://" + domain.hostname + "/";
  }

  simnet::World world;
  simnet::Isp* isp = nullptr;
  simnet::VantagePoint* field = nullptr;
  simnet::VantagePoint* lab = nullptr;
  std::unique_ptr<simnet::HostingProvider> hosting;
  std::unique_ptr<filters::Vendor> vendor;
};

TEST_F(MeasureFixture, ClassifiesSmartFilterBlockPage) {
  const auto url = deploySmartFilterAndBlockedUrl();
  simnet::Transport transport(world);
  const auto fetch = transport.fetchUrl(*field, url);
  const auto match = classifyBlockPage(fetch);
  ASSERT_TRUE(match);
  EXPECT_EQ(match->product, ProductKind::kSmartFilter);
  EXPECT_EQ(match->patternName, "smartfilter-via-header");
  EXPECT_FALSE(match->evidence.empty());
}

TEST_F(MeasureFixture, ClassifiesNetsweeperDenyByRedirectEvenWhenDebranded) {
  filters::Vendor netsweeper(ProductKind::kNetsweeper, world);
  filters::FilterPolicy policy;
  policy.blockedCategories = {43};
  policy.stripBranding = true;  // unbranded deny page
  auto& deployment = world.makeMiddlebox<filters::NetsweeperDeployment>(
      "NS", netsweeper, policy);
  deployment.installExternalSurfaces(world, 100);
  isp->attachMiddlebox(deployment);

  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  netsweeper.masterDb().addHost(domain.hostname, 43);

  simnet::Transport transport(world);
  const auto fetch =
      transport.fetchUrl(*field, "http://" + domain.hostname + "/");
  const auto match = classifyBlockPage(fetch);
  // The structural redirect to :8080/webadmin/deny still gives it away.
  ASSERT_TRUE(match);
  EXPECT_EQ(match->product, ProductKind::kNetsweeper);
  EXPECT_EQ(match->patternName, "netsweeper-deny-redirect");
}

TEST_F(MeasureFixture, OrdinaryPageIsNotABlockPage) {
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  simnet::Transport transport(world);
  const auto fetch =
      transport.fetchUrl(*lab, "http://" + domain.hostname + "/");
  EXPECT_FALSE(classifyBlockPage(fetch));
}

TEST_F(MeasureFixture, FetchTraceIncludesRedirectChain) {
  const auto url = deploySmartFilterAndBlockedUrl();
  simnet::Transport transport(world);
  const auto fetch = transport.fetchUrl(*field, url);
  const auto trace = fetchTrace(fetch);
  EXPECT_NE(trace.find("403"), std::string::npos);
}

TEST(BlockPagePatternsTest, LibraryCoversAllFourProducts) {
  std::set<ProductKind> covered;
  for (const auto& pattern : builtinBlockPagePatterns())
    covered.insert(pattern.product);
  EXPECT_EQ(covered.size(), 4u);
}

// ------------------------------------------------------------- Client ----

TEST_F(MeasureFixture, AccessibleVerdictWhenFieldMatchesLab) {
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  Client client(world, *field, *lab);
  const auto result = client.testUrl("http://" + domain.hostname + "/");
  EXPECT_EQ(result.verdict, Verdict::kAccessible);
  EXPECT_FALSE(result.blocked());
}

TEST_F(MeasureFixture, BlockedVerdictWithProductAttribution) {
  const auto url = deploySmartFilterAndBlockedUrl();
  Client client(world, *field, *lab);
  const auto result = client.testUrl(url);
  EXPECT_EQ(result.verdict, Verdict::kBlocked);
  EXPECT_TRUE(result.blocked());
  ASSERT_TRUE(result.blockPage);
  EXPECT_EQ(result.blockPage->product, ProductKind::kSmartFilter);
}

TEST_F(MeasureFixture, ErrorVerdictWhenSiteIsDownEverywhere) {
  Client client(world, *field, *lab);
  const auto result = client.testUrl("http://no-such-site.example/");
  EXPECT_EQ(result.verdict, Verdict::kError);
}

TEST_F(MeasureFixture, BlockedOtherOnReset) {
  struct Resetter : simnet::Middlebox {
    std::string name() const override { return "rst"; }
    std::optional<simnet::Preempt> onRequest(simnet::PathContext&) override {
      return simnet::Preempt::reset(simnet::FailureCause::kMiddlebox);
    }
  };
  isp->attachMiddlebox(world.makeMiddlebox<Resetter>());
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  Client client(world, *field, *lab);
  const auto result = client.testUrl("http://" + domain.hostname + "/");
  EXPECT_EQ(result.verdict, Verdict::kBlockedOther);
  EXPECT_TRUE(result.blocked());
  EXPECT_FALSE(result.blockPage);
}

TEST_F(MeasureFixture, InconclusiveOnContentRewriting) {
  struct Rewriter : simnet::Middlebox {
    std::string name() const override { return "rewrite"; }
    void onResponse(simnet::PathContext&, http::Response& response) override {
      response.body += "<!-- injected -->";
    }
  };
  isp->attachMiddlebox(world.makeMiddlebox<Rewriter>());
  const auto domain =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  Client client(world, *field, *lab);
  const auto result = client.testUrl("http://" + domain.hostname + "/");
  EXPECT_EQ(result.verdict, Verdict::kInconclusive);
}

TEST_F(MeasureFixture, TestListPreservesOrder) {
  const auto a = hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  const auto b = hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  Client client(world, *field, *lab);
  const std::vector<std::string> urls{"http://" + a.hostname + "/",
                                      "http://" + b.hostname + "/"};
  const auto results = client.testList(urls);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].url, urls[0]);
  EXPECT_EQ(results[1].url, urls[1]);
}

TEST(VerdictTest, ToStringCoversAll) {
  EXPECT_EQ(toString(Verdict::kAccessible), "accessible");
  EXPECT_EQ(toString(Verdict::kBlocked), "blocked");
  EXPECT_EQ(toString(Verdict::kBlockedOther), "blocked-other");
  EXPECT_EQ(toString(Verdict::kInconclusive), "inconclusive");
  EXPECT_EQ(toString(Verdict::kError), "error");
}

}  // namespace
}  // namespace urlf::measure
