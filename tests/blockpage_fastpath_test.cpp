// The fetch→classify fast path: the literal-anchored util::IcaseRegex
// against the standard <regex> engine it replaces (the oracle), the compiled
// pattern library vs the per-call reference classifier, and the
// batched/memoized measurement client vs the serial one.
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "measure/blockpage.h"
#include "measure/client.h"
#include "measure/mining.h"
#include "measure/pattern_library.h"
#include "scenarios/paper_world.h"
#include "util/icase_regex.h"
#include "util/rng.h"

namespace urlf {
namespace {

// --- IcaseRegex vs the ECMAScript oracle ------------------------------------

/// The oracle's leftmost match as (position, text), or nullopt.
std::optional<std::pair<std::size_t, std::string>> oracle(
    const std::string& pattern, const std::string& text) {
  const std::regex re(pattern, std::regex::ECMAScript | std::regex::icase);
  std::smatch match;
  if (!std::regex_search(text, match, re)) return std::nullopt;
  return std::make_pair(static_cast<std::size_t>(match.position(0)),
                        match.str(0));
}

/// IcaseRegex must report exactly the oracle's match: same start, same bytes.
void expectSameAsOracle(const std::string& pattern, const std::string& text) {
  const auto want = oracle(pattern, text);
  const auto got = util::IcaseRegex(pattern).search(text);
  ASSERT_EQ(want.has_value(), got.has_value())
      << "pattern /" << pattern << "/ text \"" << text << "\"";
  if (!want) return;
  EXPECT_EQ(want->first, got->position) << "pattern /" << pattern << "/";
  EXPECT_EQ(want->second, text.substr(got->position, got->length))
      << "pattern /" << pattern << "/ text \"" << text << "\"";
}

std::string mixCase(std::string text, util::Rng& rng) {
  for (char& c : text) {
    if (rng.uniform(0, 1) == 0)
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    else
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

TEST(IcaseRegex, DotStopsAtCarriageReturnAndLineFeed) {
  const std::string via = R"(Via:.*McAfee Web Gateway)";
  for (const std::string text : {
           "Via: 1.1 x\r\nServer: McAfee Web Gateway\r\n",
           "Via: 1.1 x\nMcAfee Web Gateway",
           "Via: 1.1 x\rMcAfee Web Gateway",
           "via: 1.1 x (mcafee web gateway)\r\n",
           "Server: x\r\nVIA: McAfee Web Gateway\r\nVia: none\r\n",
       })
    expectSameAsOracle(via, text);
  // [^<] is not `.`: it crosses line breaks.
  expectSameAsOracle(R"(<title>[^<]*Blue Coat[^<]*</title>)",
                     "<title>\r\nBlue\nCoat\r\n Blue Coat\n</title>");
  EXPECT_FALSE(util::IcaseRegex(via).search("Via: a\nMcAfee Web Gateway"));
}

TEST(IcaseRegex, GreedyEvidenceRunsToTheLastHitOnTheLine) {
  const std::string text =
      "Via: 1.1 McAfee Web Gateway, 1.1 mcafee web gateway 7\r\n"
      "X-Note: McAfee Web Gateway\r\n";
  expectSameAsOracle(R"(Via:.*McAfee Web Gateway)", text);
  const auto match = util::IcaseRegex(R"(Via:.*McAfee Web Gateway)").search(text);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(text.substr(match->position, match->length),
            "Via: 1.1 McAfee Web Gateway, 1.1 mcafee web gateway");
}

TEST(IcaseRegex, TitleContainingLessThan) {
  const std::string pattern = R"(<title>[^<]*McAfee Web Gateway[^<]*</title>)";
  for (const std::string text : {
           "<title>a<b McAfee Web Gateway</title>",
           "<title>McAfee Web Gateway <x</title><title>McAfee Web Gateway</title>",
           "<title><title>McAfee Web Gateway</title>",
           "<title>McAfee Web Gateway</title</title>",
           "<TITLE>mcafee web gateway</TITLE>",
       })
    expectSameAsOracle(pattern, text);
}

TEST(IcaseRegex, MinedPatternsFromRandomCoresMatchOracle) {
  // Cores hold every regex special, CRLF and mixed case, as mined traces do.
  const std::string alphabet = "\\^$.|?*+()[]{}\r\n aZ09-/:=<>\"'";
  util::Rng rng(151);
  for (int i = 0; i < 300; ++i) {
    std::string core;
    const auto length = rng.uniform(1, 24);
    for (std::uint64_t k = 0; k < length; ++k)
      core += alphabet[rng.uniform(0, alphabet.size() - 1)];
    const std::string pattern = measure::regexEscape(core);
    std::string noise;
    for (int k = 0; k < 8; ++k)
      noise += alphabet[rng.uniform(0, alphabet.size() - 1)];
    expectSameAsOracle(pattern, noise + mixCase(core, rng) + noise);
    expectSameAsOracle(pattern, noise + noise);
    expectSameAsOracle(pattern, core.substr(0, core.size() / 2) + noise);
  }
}

/// A random pattern in the subset: up to three branches of quantified
/// literals, escapes, `.` and brackets, sometimes wrapped in a group.
std::string randomSubsetPattern(util::Rng& rng) {
  const std::vector<std::string> atoms{
      "a",  "B",   "c",     "0",     "-",      "<",       " ",    "\\.",
      ".",  "\\d", "\\s", "\\w", "[^<]",   "[a-c]",   "[0-9.]", "[\\d.]",
      "[^a\\s]", "[-a]", "[b-]", "\\?", "\\(", "[A-C]", "\r", "\n"};
  const std::vector<std::string> quantifiers{"", "", "", "*", "+", "?"};
  std::string pattern;
  const auto branches = rng.uniform(1, 3);
  for (std::uint64_t b = 0; b < branches; ++b) {
    if (b > 0) pattern += '|';
    const auto atomsInBranch = rng.uniform(0, 5);
    for (std::uint64_t a = 0; a < atomsInBranch; ++a)
      pattern += rng.pick(atoms) + rng.pick(quantifiers);
  }
  return rng.uniform(0, 3) == 0 ? "(" + pattern + ")" : pattern;
}

TEST(IcaseRegex, RandomSubsetPatternsMatchOracle) {
  const std::string alphabet = "aAbBcC019 .<-_?(\r\n";
  util::Rng rng(4242);
  for (int i = 0; i < 3000; ++i) {
    const std::string pattern = randomSubsetPattern(rng);
    std::string text;
    const auto length = rng.uniform(0, 24);
    for (std::uint64_t k = 0; k < length; ++k)
      text += alphabet[rng.uniform(0, alphabet.size() - 1)];
    expectSameAsOracle(pattern, text);
  }
}

TEST(IcaseRegex, PatternsOutsideTheSubsetThrow) {
  for (const char* pattern :
       {"^abc", "abc$", "a{2}", "a{1,3}", "a*?", "a+?", "a??", "a**", "*a",
        "+", "(a)(b)", "(a|b)c", "x(a)", "((a))", "(?:a)", "(unclosed", "a)",
        "\\bword", "\\1", "\\D", "\\x41", "\\n", "[[:alpha:]]", "[abc",
        "[]", "[^]", "[z-a]", "[a-c-e]", "[\\d-z]", "a\\", "]", "}"}) {
    EXPECT_THROW(util::IcaseRegex{pattern}, std::regex_error) << pattern;
  }
  // Every builtin pattern is inside the subset.
  for (const auto& pattern : measure::builtinBlockPagePatterns())
    EXPECT_NO_THROW(util::IcaseRegex{pattern.regex}) << pattern.name;
}

// --- compiled library vs reference classifier ------------------------------

simnet::FetchResult resultWithBody(std::string body) {
  simnet::FetchResult result;
  result.response = http::Response::make(http::Status::kOk, std::move(body));
  return result;
}

simnet::FetchResult redirectResult(const std::string& location) {
  simnet::FetchResult result;
  auto hop = http::Response::make(http::Status::kFound);
  hop.headers.set("Location", location);
  result.redirectChain.push_back(std::move(hop));
  result.response = http::Response::make(http::Status::kOk, "<html/>");
  return result;
}

std::vector<simnet::FetchResult> classifyCorpus() {
  std::vector<simnet::FetchResult> corpus;
  corpus.push_back(resultWithBody("<html><body>plain page</body></html>"));
  corpus.push_back(
      resultWithBody("<title>McAfee Web Gateway - Notification</title>"));
  corpus.push_back(resultWithBody("<TITLE>WEBSENSE - Access denied</TITLE>"));
  corpus.push_back(resultWithBody("Netsweeper WebAdmin deny page"));
  corpus.push_back(
      redirectResult("http://www.cfauth.com/?cfru=aHR0cDovL3guY29tLw"));
  corpus.push_back(
      redirectResult("http://10.0.0.2:8080/webadmin/deny.php?dpid=4"));
  corpus.push_back(redirectResult(
      "http://10.0.0.8:15871/cgi-bin/blockpage.cgi?ws-session=123"));
  {  // SmartFilter Via header on an otherwise benign page
    simnet::FetchResult result = resultWithBody("<html>proxied</html>");
    result.response->headers.set("Via", "1.1 x (McAfee Web Gateway 7)");
    corpus.push_back(std::move(result));
  }
  {  // failed fetch, empty chain: classified as nothing by the guard
    simnet::FetchResult result;
    result.outcome = simnet::FetchOutcome::kTimeout;
    result.error = "timed out";
    corpus.push_back(std::move(result));
  }
  // Near misses: the literal occurs but the full pattern must not match.
  corpus.push_back(resultWithBody("the words mcafee web gateway in a body"));
  corpus.push_back(resultWithBody("<title>not blue coat here</title>x"));
  return corpus;
}

TEST(CompiledPatternLibrary, MatchesReferenceClassifierOnCorpus) {
  const auto& patterns = measure::builtinBlockPagePatterns();
  for (const auto& result : classifyCorpus()) {
    const auto reference =
        measure::classifyBlockPageReference(result, patterns);
    const auto compiled = measure::classifyBlockPage(result);
    const auto cached = measure::classifyBlockPage(result, patterns);
    ASSERT_EQ(reference.has_value(), compiled.has_value());
    ASSERT_EQ(reference.has_value(), cached.has_value());
    if (!reference) continue;
    EXPECT_EQ(reference->product, compiled->product);
    EXPECT_EQ(reference->patternName, compiled->patternName);
    EXPECT_EQ(reference->evidence, compiled->evidence);
    EXPECT_EQ(reference->patternName, cached->patternName);
    EXPECT_EQ(reference->evidence, cached->evidence);
  }
}

TEST(CompiledPatternLibrary, MatchesReferenceOnRandomizedTraces) {
  // Random noise around mixed-case vendor fragments, some spanning lines:
  // the literal prefilter must never change the outcome, only skip
  // provably impossible patterns.
  const auto& patterns = measure::builtinBlockPagePatterns();
  const std::vector<std::string> fragments{
      "McAfee Web Gateway",    "www.cfauth.com/?cfru=",
      "webadmin/deny",         "blockpage.cgi?ws-session=",
      "Netsweeper WebAdmin",   "<title>Websense</title>",
      "harmless filler text",  "X-Filter: Netsweeper",
      "Via: 1.1 proxy (McAfee Web Gateway 7.2)\r\n",
      "<title>Blue Coat\r\nProxySG</title>",
      "Location:   http://10.1.2.3:8080/webadmin/deny.php\r\n",
      "X-Filter:\tNetsweeper\r\n",
  };
  util::Rng rng(424242);
  for (int i = 0; i < 400; ++i) {
    std::string body;
    const int parts = 1 + static_cast<int>(rng.uniform(0, 3));
    for (int p = 0; p < parts; ++p) {
      body += mixCase(rng.pick(fragments), rng);
      body += ' ';
      for (int f = 0; f < 10; ++f) body += static_cast<char>(rng.uniform(97, 122));
      body += ' ';
    }
    const auto result = resultWithBody(body);
    const auto reference =
        measure::classifyBlockPageReference(result, patterns);
    const auto compiled = measure::classifyBlockPage(result);
    ASSERT_EQ(reference.has_value(), compiled.has_value()) << body;
    if (reference) {
      EXPECT_EQ(reference->patternName, compiled->patternName) << body;
      EXPECT_EQ(reference->evidence, compiled->evidence) << body;
    }
  }
}

TEST(CompiledPatternLibrary, ClassifyTraceIsCaseInsensitive) {
  const auto& library = measure::CompiledPatternLibrary::builtin();
  const auto upper = library.classifyTrace(
      "LOCATION: HTTP://WWW.CFAUTH.COM/?CFRU=ABC\r\n");
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(upper->product, filters::ProductKind::kBlueCoat);
  EXPECT_FALSE(library.classifyTrace("nothing to see here").has_value());
}

// --- batched client vs serial client ---------------------------------------

std::vector<std::string> someGlobalUrls(const scenarios::PaperWorld& paper,
                                        std::size_t count) {
  std::vector<std::string> urls;
  for (const auto& entry : paper.globalList().entries) {
    urls.push_back(entry.url);
    if (urls.size() == count) break;
  }
  return urls;
}

void expectSameResults(const std::vector<measure::UrlTestResult>& a,
                       const std::vector<measure::UrlTestResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url);
    EXPECT_EQ(a[i].verdict, b[i].verdict) << a[i].url;
    ASSERT_EQ(a[i].blockPage.has_value(), b[i].blockPage.has_value())
        << a[i].url;
    if (a[i].blockPage) {
      EXPECT_EQ(a[i].blockPage->product, b[i].blockPage->product);
      EXPECT_EQ(a[i].blockPage->patternName, b[i].blockPage->patternName);
    }
  }
}

TEST(BatchedClient, MatchesSerialClientAtEveryThreadCount) {
  scenarios::PaperWorld paper;
  scenarios::advanceClockTo(paper.world(), {2013, 4, 1});
  const auto* field = paper.world().findVantage("field-etisalat");
  const auto* lab = paper.world().findVantage("lab-toronto");
  ASSERT_NE(field, nullptr);
  ASSERT_NE(lab, nullptr);

  const auto urls = someGlobalUrls(paper, 12);
  ASSERT_FALSE(urls.empty());

  measure::Client client(paper.world(), *field, *lab);
  const auto serial = client.testList(urls);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
    const auto batched = client.testListBatched(urls, threads);
    expectSameResults(serial, batched);
  }

  // Reference classify mode must agree as well.
  client.setClassifyMode(measure::ClassifyMode::kReference);
  expectSameResults(serial, client.testListBatched(urls, 2));
}

TEST(VerdictMemo, HitsOnRepeatsAndInvalidatesOnClockAdvance) {
  scenarios::PaperWorld paper;
  scenarios::advanceClockTo(paper.world(), {2013, 4, 1});
  const auto* field = paper.world().findVantage("field-etisalat");
  const auto* lab = paper.world().findVantage("lab-toronto");
  ASSERT_NE(field, nullptr);
  ASSERT_NE(lab, nullptr);

  const auto urls = someGlobalUrls(paper, 6);
  measure::Client client(paper.world(), *field, *lab);
  client.enableVerdictMemo(true);
  // Etisalat's Blue Coat + SmartFilter tandem rolls no dice per exchange.
  ASSERT_TRUE(client.verdictMemoActive());

  const auto first = client.testList(urls);
  EXPECT_EQ(client.verdictMemoHits(), 0u);
  const auto second = client.testList(urls);
  EXPECT_EQ(client.verdictMemoHits(), urls.size());
  expectSameResults(first, second);

  // Any clock movement moves the epoch: the memo must not serve stale
  // verdicts (update lags are measured against the clock).
  paper.world().clock().advanceHours(1);
  const auto third = client.testList(urls);
  EXPECT_EQ(client.verdictMemoHits(), urls.size());  // no new hits
  expectSameResults(first, third);
}

TEST(VerdictMemo, RefusesNondeterministicChains) {
  scenarios::PaperWorld paper;
  scenarios::advanceClockTo(paper.world(), {2013, 4, 1});
  const auto* field = paper.world().findVantage("field-yemennet");
  const auto* lab = paper.world().findVantage("lab-toronto");
  ASSERT_NE(field, nullptr);
  ASSERT_NE(lab, nullptr);

  // YemenNet's Netsweeper has offlineProbability > 0 (Challenge 2): every
  // repeat must re-roll, so the memo must refuse to activate.
  measure::Client client(paper.world(), *field, *lab);
  client.enableVerdictMemo(true);
  EXPECT_FALSE(client.verdictMemoActive());
}

}  // namespace
}  // namespace urlf
