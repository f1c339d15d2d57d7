// Measurement sessions: full-trace export/import, offline re-classification
// with a different pattern library, and block-page pattern mining — the §5
// collect-first/analyze-later workflow.
#include <gtest/gtest.h>

#include "measure/mining.h"
#include "measure/session.h"
#include "scenarios/paper_world.h"

namespace urlf::measure {
namespace {

using filters::ProductKind;
using scenarios::PaperWorld;

class SessionFixture : public ::testing::Test {
 protected:
  /// Run a small mixed list (blocked + open) from the Etisalat vantage.
  std::vector<UrlTestResult> runSession() {
    Client client(paper.world(), *paper.world().findVantage("field-etisalat"),
                  *paper.world().findVantage("lab-toronto"));
    const std::vector<std::string> urls{
        "http://adultvideosite.com/",   // blocked: SmartFilter Pornography
        "http://freeproxyhub.com/",     // blocked: SmartFilter Anonymizers
        "http://lgbtvoices.org/",       // blocked: SmartFilter Lifestyle
        "http://worldsportsnews.com/",  // accessible
        "http://searchportal.com/",     // accessible
    };
    return client.testList(urls);
  }

  PaperWorld paper;
};

// ------------------------------------------------------------ Sessions ----

TEST_F(SessionFixture, ExportImportRoundTrip) {
  const auto session = runSession();
  const auto text = exportSession(session, 2);
  const auto imported = importSession(text);
  ASSERT_TRUE(imported);
  ASSERT_EQ(imported->size(), session.size());
  for (std::size_t i = 0; i < session.size(); ++i) {
    EXPECT_EQ((*imported)[i].url, session[i].url);
    EXPECT_EQ((*imported)[i].verdict, session[i].verdict);
    EXPECT_EQ((*imported)[i].blockPage.has_value(),
              session[i].blockPage.has_value());
    if (session[i].blockPage) {
      EXPECT_EQ((*imported)[i].blockPage->product,
                session[i].blockPage->product);
    }
    EXPECT_EQ((*imported)[i].field.outcome, session[i].field.outcome);
    if (session[i].field.response) {
      EXPECT_EQ((*imported)[i].field.response->body,
                session[i].field.response->body);
    }
  }
}

TEST_F(SessionFixture, ImportRejectsMalformed) {
  EXPECT_FALSE(importSession("not json"));
  EXPECT_FALSE(importSession("{}"));
  EXPECT_FALSE(importSession(R"([{"url": 5}])"));
  EXPECT_FALSE(importSession(
      R"([{"url": "http://x/", "field": {"outcome": "warp-speed"},
           "lab": {"outcome": "ok"}}])"));
}

TEST_F(SessionFixture, ImportRefusesOutOfRangeAttempts) {
  // Export writes "attempts" only above 1; put one on the first fetch.
  const auto text = exportSession(runSession());
  const std::string outcome = "\"outcome\":";
  ASSERT_NE(text.find(outcome), std::string::npos);
  const auto withAttempts = [&](const std::string& value) {
    auto edited = text;
    edited.insert(edited.find(outcome), "\"attempts\":" + value + ",");
    return edited;
  };
  const auto three = importSession(withAttempts("3"));
  ASSERT_TRUE(three);
  EXPECT_EQ((*three)[0].field.attempts, 3);
  for (const std::string bad : {"1e300", "-1", "2.5"})
    EXPECT_FALSE(importSession(withAttempts(bad))) << bad;
}

TEST_F(SessionFixture, ReclassifyWithEmptyLibraryLosesAttribution) {
  auto session = runSession();
  int blockedBefore = 0;
  for (const auto& result : session)
    if (result.verdict == Verdict::kBlocked) ++blockedBefore;
  ASSERT_GE(blockedBefore, 3);

  const auto stripped = reclassify(std::move(session), {});
  for (const auto& result : stripped) {
    EXPECT_FALSE(result.blockPage);
    // Without patterns the 403s still differ from the lab -> blocked-other.
    EXPECT_NE(result.verdict, Verdict::kBlocked);
  }
}

TEST_F(SessionFixture, ReclassifyWithBuiltinsRestoresAttribution) {
  auto session = runSession();
  auto stripped = reclassify(session, {});
  const auto restored =
      reclassify(std::move(stripped), builtinBlockPagePatterns());
  int attributed = 0;
  for (const auto& result : restored)
    if (result.blockPage &&
        result.blockPage->product == ProductKind::kSmartFilter)
      ++attributed;
  EXPECT_EQ(attributed, 3);
}

// -------------------------------------------------------------- Mining ----

TEST(MiningTest, LongestCommonSubstring) {
  EXPECT_EQ(longestCommonSubstring("xxMcAfee Web Gatewayyy",
                                   "aaMcAfee Web Gatewaybb"),
            "McAfee Web Gateway");
  EXPECT_EQ(longestCommonSubstring("abc", "xyz"), "");
  EXPECT_EQ(longestCommonSubstring("", "abc"), "");
  EXPECT_EQ(longestCommonSubstring("same", "same"), "same");
  EXPECT_EQ(longestCommonSubstring("ab", "cab"), "ab");
}

TEST(MiningTest, RegexEscape) {
  EXPECT_EQ(regexEscape("blockpage.cgi?ws-session=1"),
            R"(blockpage\.cgi\?ws-session=1)");
  EXPECT_EQ(regexEscape("plain text"), "plain text");
  EXPECT_EQ(regexEscape("(a|b)*"), R"(\(a\|b\)\*)");
}

TEST(MiningTest, MinePatternRequiresCommonCore) {
  const std::vector<std::string> unrelated{"completely different",
                                           "nothing shared here at all"};
  EXPECT_FALSE(
      minePattern(ProductKind::kSmartFilter, unrelated, /*minLength=*/12));

  const std::vector<std::string> shared{
      "AAA The requested URL was blocked by the gateway ZZZ",
      "BBB The requested URL was blocked by the gateway YYY"};
  const auto pattern =
      minePattern(ProductKind::kSmartFilter, shared, /*minLength=*/12);
  ASSERT_TRUE(pattern);
  EXPECT_NE(pattern->regex.find("was blocked by the gateway"),
            std::string::npos);
}

TEST_F(SessionFixture, MinedPatternClassifiesFutureBlockPages) {
  // 1. Record a session with blocked fetches.
  const auto session = runSession();

  // 2. Mine a candidate signature from the blocked traces ("manual
  //    analysis", mechanized).
  const auto mined =
      minePatternFromResults(ProductKind::kSmartFilter, session);
  ASSERT_TRUE(mined);

  // 3. The mined pattern alone classifies a fresh block page ("automated
  //    analysis").
  Client client(paper.world(), *paper.world().findVantage("field-etisalat"),
                *paper.world().findVantage("lab-toronto"));
  auto fresh = client.testUrl("http://religioncritique.org/");  // blocked
  const auto match = classifyBlockPage(fresh.field, {*mined});
  ASSERT_TRUE(match);
  EXPECT_EQ(match->product, ProductKind::kSmartFilter);
  EXPECT_EQ(match->patternName, "McAfee SmartFilter-mined");

  // ...but does NOT match an ordinary page.
  auto open = client.testUrl("http://searchportal.com/");
  EXPECT_FALSE(classifyBlockPage(open.field, {*mined}));
}

TEST_F(SessionFixture, MinedNetsweeperPatternGeneralizesAcrossCategories) {
  // Ooredoo: fully synced Netsweeper blocking Proxy Anonymizer (43),
  // Lifestyle (29) and Religion (45). Mining across two categories keeps
  // only the product-invariant deny-page core, which then classifies a
  // block page of a third category but not an ordinary page.
  Client client(paper.world(), *paper.world().findVantage("field-ooredoo"),
                *paper.world().findVantage("lab-toronto"));

  const auto diverse = client.testList(std::vector<std::string>{
      "http://freeproxyhub.com/", "http://lgbtvoices.org/"});  // 43 + 29
  const auto general =
      minePatternFromResults(ProductKind::kNetsweeper, diverse);
  ASSERT_TRUE(general);

  auto religionPage = client.testUrl("http://religioncritique.org/");  // 45
  const auto match = classifyBlockPage(religionPage.field, {*general});
  ASSERT_TRUE(match);
  EXPECT_EQ(match->product, ProductKind::kNetsweeper);

  auto openPage = client.testUrl("http://searchportal.com/");
  EXPECT_FALSE(classifyBlockPage(openPage.field, {*general}));
}

}  // namespace
}  // namespace urlf::measure
