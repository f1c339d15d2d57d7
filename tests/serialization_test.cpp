// Tests for the machine-readable output layer: CSV escaping, the JSON
// value/writer/parser, scan-record export/import round-trips, result
// serializers, evaluation metrics, and the regex fingerprint matchers.
#include <gtest/gtest.h>

#include <regex>

#include "core/evaluation.h"
#include "core/serialize.h"
#include "fingerprint/matcher.h"
#include "report/csv.h"
#include "report/json.h"
#include "scan/serialize.h"
#include "scenarios/paper_world.h"
#include "util/rng.h"

namespace urlf {
namespace {

using report::Json;

// ---------------------------------------------------------------- CSV ----

TEST(CsvTest, PlainFieldsUnchanged) {
  EXPECT_EQ(report::csvEscape("plain"), "plain");
  EXPECT_EQ(report::csvEscape(""), "");
}

TEST(CsvTest, EscapesSpecials) {
  EXPECT_EQ(report::csvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(report::csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(report::csvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, RowAndDocument) {
  EXPECT_EQ(report::csvRow({"a", "b,c", "d"}), "a,\"b,c\",d");
  const auto doc = report::csvDocument({"x", "y"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(doc, "x,y\n1,2\n3,4\n");
}

// --------------------------------------------------------------- JSON ----

TEST(JsonTest, ScalarDump) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::number(std::int64_t{42}).dump(), "42");
  EXPECT_EQ(Json::number(2.5).dump(), "2.5");
  EXPECT_EQ(Json::string("x").dump(), "\"x\"");
}

TEST(JsonTest, StringEscaping) {
  EXPECT_EQ(Json::string("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json::escape("\t"), "\\t");
  EXPECT_EQ(Json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, ObjectAndArrayDump) {
  Json object = Json::object();
  object["b"] = Json::number(std::int64_t{1});
  object["a"] = Json::string("x");
  // std::map ordering makes output deterministic: keys sorted.
  EXPECT_EQ(object.dump(), "{\"a\":\"x\",\"b\":1}");

  Json array = Json::array();
  array.push(Json::number(std::int64_t{1}));
  array.push(Json::boolean(false));
  EXPECT_EQ(array.dump(), "[1,false]");
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
}

TEST(JsonTest, PrettyPrint) {
  Json object = Json::object();
  object["k"] = Json::number(std::int64_t{1});
  EXPECT_EQ(object.dump(2), "{\n  \"k\": 1\n}");
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->isNull());
  EXPECT_EQ(*Json::parse("true")->asBool(), true);
  EXPECT_DOUBLE_EQ(*Json::parse("-3.5e2")->asNumber(), -350.0);
  EXPECT_EQ(*Json::parse("\"hi\"")->asString(), "hi");
}

TEST(JsonTest, ParseStructures) {
  const auto parsed = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(parsed);
  const auto* a = parsed->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  EXPECT_EQ(a->asArray()->size(), 3u);
  EXPECT_EQ(*(*a->asArray())[2].find("b")->asString(), "c");
  EXPECT_TRUE(parsed->find("d")->isNull());
}

TEST(JsonTest, ParseEscapes) {
  EXPECT_EQ(*Json::parse(R"("a\n\t\"\\A")")->asString(), "a\n\t\"\\A");
  // Unicode BMP escape -> UTF-8.
  EXPECT_EQ(*Json::parse(R"("é")")->asString(), "\xC3\xA9");
}

TEST(JsonTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse(""));
  EXPECT_FALSE(Json::parse("{"));
  EXPECT_FALSE(Json::parse("[1,]"));
  EXPECT_FALSE(Json::parse("{\"a\" 1}"));
  EXPECT_FALSE(Json::parse("\"unterminated"));
  EXPECT_FALSE(Json::parse("trailing garbage"));
  EXPECT_FALSE(Json::parse("1 2"));
  EXPECT_FALSE(Json::parse("\"bad\\q\""));
}

TEST(JsonTest, TypeErrorsThrow) {
  Json number = Json::number(1.0);
  EXPECT_THROW(number["k"], std::logic_error);
  EXPECT_THROW(number.push(Json::null()), std::logic_error);
  // Null auto-vivifies into the needed container.
  Json null1;
  null1["k"] = Json::number(1.0);
  EXPECT_TRUE(null1.isObject());
  Json null2;
  null2.push(Json::number(1.0));
  EXPECT_TRUE(null2.isArray());
}

/// Property: dump -> parse -> dump is a fixed point for generated documents.
class JsonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTrip, DumpParseDumpStable) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 30; ++i) {
    Json doc = Json::object();
    const int members = static_cast<int>(rng.uniform(0, 6));
    for (int m = 0; m < members; ++m) {
      const std::string key = "key" + std::to_string(m);
      switch (rng.uniform(0, 3)) {
        case 0: doc[key] = Json::number(static_cast<std::int64_t>(
                    rng.uniform(0, 100000))); break;
        case 1: doc[key] = Json::string("v\"al\n" + std::to_string(m)); break;
        case 2: doc[key] = Json::boolean(rng.chance(0.5)); break;
        default: {
          Json array = Json::array();
          const int n = static_cast<int>(rng.uniform(0, 4));
          for (int j = 0; j < n; ++j)
            array.push(Json::string("item" + std::to_string(j)));
          doc[key] = std::move(array);
        }
      }
    }
    const std::string once = doc.dump();
    const auto parsed = Json::parse(once);
    ASSERT_TRUE(parsed) << once;
    ASSERT_EQ(parsed->dump(), once);
    // Pretty-printed output parses back to the same document too.
    const auto pretty = Json::parse(doc.dump(2));
    ASSERT_TRUE(pretty);
    ASSERT_EQ(pretty->dump(), once);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, JsonRoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ------------------------------------------------------- Scan records ----

TEST(ScanSerializeTest, RoundTripsRealScanData) {
  scenarios::PaperWorld paper;
  const auto geo = paper.world().buildGeoDatabase();
  scan::BannerIndex index;
  index.crawl(paper.world(), geo);
  ASSERT_GT(index.size(), 50u);

  const auto exported = scan::exportRecords(index.records());
  const auto imported = scan::importRecords(exported);
  ASSERT_TRUE(imported);
  ASSERT_EQ(imported->size(), index.size());

  for (std::size_t i = 0; i < imported->size(); ++i) {
    const auto& a = index.records()[i];
    const auto& b = (*imported)[i];
    EXPECT_EQ(a.ip, b.ip);
    EXPECT_EQ(a.port, b.port);
    EXPECT_EQ(a.statusCode, b.statusCode);
    EXPECT_EQ(a.headers, b.headers);
    EXPECT_EQ(a.body, b.body);
    EXPECT_EQ(a.title, b.title);
    EXPECT_EQ(a.countryAlpha2, b.countryAlpha2);
    EXPECT_EQ(a.observedAt, b.observedAt);
  }

  // An imported index searches identically.
  const auto restored = scan::BannerIndex::fromRecords(std::move(*imported));
  EXPECT_EQ(restored.search({"netsweeper", std::nullopt}).size(),
            index.search({"netsweeper", std::nullopt}).size());
}

TEST(ScanSerializeTest, ImportRejectsMalformed) {
  EXPECT_FALSE(scan::importRecords("not json"));
  EXPECT_FALSE(scan::importRecords("{}"));             // not an array
  EXPECT_FALSE(scan::importRecords("[{\"ip\": 5}]"));  // wrong types
  EXPECT_FALSE(scan::importRecords(
      R"([{"ip": "999.1.1.1", "port": 80, "status": 200}])"));
  EXPECT_FALSE(scan::importRecords(
      R"([{"ip": "1.1.1.1", "port": 99999, "status": 200}])"));
  const auto minimal =
      scan::importRecords(R"([{"ip": "1.1.1.1", "port": 80, "status": 200}])");
  ASSERT_TRUE(minimal);
  EXPECT_EQ((*minimal)[0].ip.toString(), "1.1.1.1");
}

// --------------------------------------------------- Result serializers ----

TEST(ResultJsonTest, CaseStudyResultShape) {
  core::CaseStudyResult result;
  result.config.product = filters::ProductKind::kNetsweeper;
  result.config.ispName = "Du";
  result.config.countryAlpha2 = "AE";
  result.config.categoryLabel = "Proxy anonymizer";
  result.dateLabel = "3/2013";
  result.submittedUrls = {"http://a.info/", "http://b.info/"};
  result.controlUrls = {"http://c.info/"};
  result.submittedBlocked = 2;
  result.attributedToProduct = 2;
  result.confirmed = true;

  const auto json = core::toJson(result);
  EXPECT_EQ(*json.find("product")->asString(), "Netsweeper");
  EXPECT_EQ(*json.find("sites_blocked")->asString(), "2/2");
  EXPECT_EQ(*json.find("sites_submitted")->asString(), "2/3");
  EXPECT_EQ(*json.find("confirmed")->asBool(), true);
  EXPECT_EQ(json.find("submitted_urls")->asArray()->size(), 2u);
  // It must be valid JSON text.
  EXPECT_TRUE(Json::parse(json.dump(2)));
}

TEST(ResultJsonTest, InstallationShape) {
  core::Installation installation;
  installation.product = filters::ProductKind::kBlueCoat;
  installation.ip = net::Ipv4Addr(60, 3, 0, 2);
  installation.port = 8082;
  installation.countryAlpha2 = "AE";
  installation.asn = geo::AsnRecord{5384, "EMIRATES-INTERNET", "Etisalat", "AE"};
  installation.certainty = 1.0;
  installation.evidence = {"Server: Blue Coat ProxySG"};

  const auto json = core::toJson(installation);
  EXPECT_EQ(*json.find("ip")->asString(), "60.3.0.2");
  EXPECT_DOUBLE_EQ(*json.find("asn")->find("asn")->asNumber(), 5384.0);
  EXPECT_EQ(json.find("evidence")->asArray()->size(), 1u);
}

// ---------------------------------------------------------- Evaluation ----

TEST(EvaluationTest, PerfectScore) {
  std::vector<core::Installation> reported(2);
  reported[0].ip = net::Ipv4Addr(1, 0, 0, 1);
  reported[1].ip = net::Ipv4Addr(1, 0, 0, 2);
  const auto confusion = core::scoreIdentification(
      reported, {net::Ipv4Addr(1, 0, 0, 1).value(),
                 net::Ipv4Addr(1, 0, 0, 2).value()});
  EXPECT_EQ(confusion.truePositives, 2);
  EXPECT_EQ(confusion.falsePositives, 0);
  EXPECT_EQ(confusion.falseNegatives, 0);
  EXPECT_DOUBLE_EQ(confusion.precision(), 1.0);
  EXPECT_DOUBLE_EQ(confusion.recall(), 1.0);
  EXPECT_DOUBLE_EQ(confusion.f1(), 1.0);
}

TEST(EvaluationTest, MixedScore) {
  std::vector<core::Installation> reported(2);
  reported[0].ip = net::Ipv4Addr(1, 0, 0, 1);  // true positive
  reported[1].ip = net::Ipv4Addr(9, 9, 9, 9);  // false positive
  const auto confusion = core::scoreIdentification(
      reported, {net::Ipv4Addr(1, 0, 0, 1).value(),
                 net::Ipv4Addr(1, 0, 0, 2).value()});  // one missed
  EXPECT_EQ(confusion.truePositives, 1);
  EXPECT_EQ(confusion.falsePositives, 1);
  EXPECT_EQ(confusion.falseNegatives, 1);
  EXPECT_DOUBLE_EQ(confusion.precision(), 0.5);
  EXPECT_DOUBLE_EQ(confusion.recall(), 0.5);
}

TEST(EvaluationTest, EmptyCasesAreVacuouslyPerfect) {
  const auto confusion = core::scoreIdentification({}, {});
  EXPECT_DOUBLE_EQ(confusion.precision(), 1.0);
  EXPECT_DOUBLE_EQ(confusion.recall(), 1.0);
  EXPECT_DOUBLE_EQ(confusion.f1(), 1.0);
}

TEST(EvaluationTest, DuplicateReportsCountOnce) {
  std::vector<core::Installation> reported(3);
  reported[0].ip = net::Ipv4Addr(1, 0, 0, 1);
  reported[1].ip = net::Ipv4Addr(1, 0, 0, 1);  // duplicate
  reported[2].ip = net::Ipv4Addr(1, 0, 0, 1);  // duplicate
  const auto confusion = core::scoreIdentification(
      reported, {net::Ipv4Addr(1, 0, 0, 1).value()});
  EXPECT_EQ(confusion.truePositives, 1);
  EXPECT_EQ(confusion.falsePositives, 0);
}

// ------------------------------------------------------- Regex matchers ----

TEST(RegexMatcherTest, HeaderRegex) {
  fingerprint::Observation obs;
  obs.headers.add("Via", "1.1 mwg.local (McAfee Web Gateway 7.2.0.9)");
  const auto matcher =
      fingerprint::Matcher::headerRegex("Via", R"(McAfee Web Gateway [\d.]+)");
  EXPECT_TRUE(matcher.match(obs));
  EXPECT_FALSE(fingerprint::Matcher::headerRegex("Via", R"(Netsweeper/\d)")
                   .match(obs));
}

TEST(RegexMatcherTest, BodyRegex) {
  fingerprint::Observation obs;
  obs.body = "<form action=\"/webadmin/login\">";
  EXPECT_TRUE(
      fingerprint::Matcher::bodyRegex(R"(/webadmin/\w+)").match(obs));
  EXPECT_FALSE(fingerprint::Matcher::bodyRegex(R"(blockpage\.cgi)").match(obs));
}

TEST(RegexMatcherTest, CaseInsensitive) {
  fingerprint::Observation obs;
  obs.body = "NETSWEEPER WEBADMIN";
  EXPECT_TRUE(fingerprint::Matcher::bodyRegex("netsweeper").match(obs));
}

TEST(RegexMatcherTest, MalformedPatternThrows) {
  EXPECT_THROW(fingerprint::Matcher::bodyRegex("(unclosed"), std::regex_error);
}

TEST(RegexMatcherTest, DescribeShowsPattern) {
  EXPECT_EQ(fingerprint::Matcher::bodyRegex("x+").describe(),
            "body matches /x+/i");
  EXPECT_EQ(fingerprint::Matcher::headerRegex("Via", "a").describe(),
            "header Via matches /a/i");
}

TEST(RegexMatcherTest, UsableInsideSignatures) {
  fingerprint::Engine engine;
  engine.addSignature(
      {filters::ProductKind::kSmartFilter,
       "regex-sig",
       {{fingerprint::Matcher::headerRegex("Via", R"(\(McAfee Web Gateway)"),
         1.0}},
       0.5});
  fingerprint::Observation obs;
  obs.headers.add("Via", "1.1 gw (McAfee Web Gateway 7.2)");
  EXPECT_EQ(engine.evaluate(obs).size(), 1u);
}

}  // namespace
}  // namespace urlf
