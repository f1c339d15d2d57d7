// Durability of server-run campaign sessions (DESIGN.md §4.6): a session
// journaled through the serve protocol can crash at sampled append
// boundaries and resume — on a different server, at a different worker
// count, even after the source snapshot has mutated — into the exact solo
// digest. The journal header is self-contained (campaign config + overlay
// at capture), which is what every assertion here leans on.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "http/message.h"
#include "measure/journal.h"
#include "report/json.h"
#include "scenarios/campaign.h"
#include "serve/server.h"

namespace {

using namespace urlf;
using measure::CampaignJournal;
using report::Json;
namespace fs = std::filesystem;

http::Request post(const std::string& path, const Json& body) {
  http::Request request;
  request.method = "POST";
  request.url = *net::Url::parse("http://campaigns.sim" + path);
  request.headers.set("Content-Type", "application/json");
  request.body = body.dump();
  return request;
}

Json campaignBody(const std::string& journal = "", bool resume = false,
                  int crashAfter = 0, std::size_t classifyThreads = 0) {
  Json body = Json::object();
  body["kind"] = Json::string("campaign");
  body["snapshot"] = Json::string("paper");
  if (!journal.empty()) body["journal"] = Json::string(journal);
  if (resume) body["resume"] = Json::boolean(true);
  if (crashAfter > 0) body["crash_after"] = Json::number(std::int64_t{crashAfter});
  if (classifyThreads != 0)
    body["classify_threads"] =
        Json::number(static_cast<std::int64_t>(classifyThreads));
  return body;
}

std::string stringField(const http::Response& response,
                        const std::string& field) {
  const auto body = Json::parse(response.body);
  if (!body) return "<unparseable>";
  const auto* value = body->find(field);
  if (value == nullptr || !value->asString()) return "<missing>";
  return *value->asString();
}

double numberField(const http::Response& response, const std::string& field) {
  const auto body = Json::parse(response.body);
  if (!body) return -1;
  const auto* value = body->find(field);
  if (value == nullptr || !value->asNumber()) return -1;
  return *value->asNumber();
}

class ServeRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("urlf_serve_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ServeRecoveryTest, CrashAtSampledBoundariesResumesToSoloDigest) {
  const auto soloDigest =
      scenarios::runPaperCampaign(scenarios::CampaignOptions{}).digestHex();

  // Uninterrupted journaled session: baseline digest and append count.
  serve::CampaignServer origin({.workers = 2});
  origin.addSnapshot("paper");
  const fs::path fullPath = dir_ / "full.journal";
  const auto full = origin.handle(
      post("/v1/session", campaignBody(fullPath.string())));
  ASSERT_EQ(full.statusCode, 200) << full.body;
  EXPECT_EQ(stringField(full, "digest"), soloDigest);
  const int appends = static_cast<int>(numberField(full, "journal_appends"));
  ASSERT_GT(appends, 10);

  // Resume happens on a server with a DIFFERENT worker count and classify
  // fan-out, and WITHOUT the snapshot registered at all — the journal
  // header alone must rebuild the world.
  serve::CampaignServer fresh({.workers = 4});

  const std::vector<int> sample{1, appends / 4, appends / 2, appends - 1};
  int crashes = 0;
  for (const int crashAfter : sample) {
    const fs::path path =
        dir_ / ("crash_" + std::to_string(crashAfter) + ".journal");

    const auto crashed = origin.handle(post(
        "/v1/session", campaignBody(path.string(), false, crashAfter)));
    ASSERT_EQ(crashed.statusCode, 500) << crashed.body;
    EXPECT_EQ(stringField(crashed, "error"), "simulated-crash");
    ++crashes;

    const auto resumed = fresh.handle(post(
        "/v1/session",
        campaignBody(path.string(), true, 0, /*classifyThreads=*/3)));
    ASSERT_EQ(resumed.statusCode, 200)
        << "crash_after=" << crashAfter << ": " << resumed.body;
    EXPECT_EQ(stringField(resumed, "digest"), soloDigest)
        << "crash_after=" << crashAfter;
    const auto body = Json::parse(resumed.body);
    ASSERT_TRUE(body.has_value());
    EXPECT_TRUE(*body->find("resumed")->asBool());
  }
  EXPECT_EQ(origin.stats().crashes, static_cast<std::uint64_t>(crashes));
  EXPECT_EQ(fresh.stats().campaignsCompleted,
            static_cast<std::uint64_t>(sample.size()));
}

TEST_F(ServeRecoveryTest, ResumeSurvivesSnapshotMutation) {
  const auto soloDigest =
      scenarios::runPaperCampaign(scenarios::CampaignOptions{}).digestHex();

  serve::CampaignServer server({.workers = 2});
  server.addSnapshot("paper");
  const fs::path path = dir_ / "mutated.journal";

  const auto crashed = server.handle(
      post("/v1/session", campaignBody(path.string(), false, 5)));
  ASSERT_EQ(crashed.statusCode, 500) << crashed.body;

  // The snapshot moves to epoch 1 while the crashed session is down.
  Json edit = Json::object();
  edit["snapshot"] = Json::string("paper");
  edit["product"] = Json::string("McAfee SmartFilter");
  edit["host"] = Json::string("humanrightsmonitor.org");
  edit["category"] = Json::string("Pornography");
  ASSERT_EQ(server.handle(post("/v1/admin/recategorize", edit)).statusCode,
            200);

  // Resume replays the journal's OWN epoch-0 capture, not the snapshot's
  // current state: the digest is the untouched solo digest.
  const auto resumed = server.handle(
      post("/v1/session", campaignBody(path.string(), true)));
  ASSERT_EQ(resumed.statusCode, 200) << resumed.body;
  EXPECT_EQ(stringField(resumed, "digest"), soloDigest);
  EXPECT_EQ(numberField(resumed, "epoch"), 0);
}

TEST_F(ServeRecoveryTest, HeaderWorldMismatchIsDivergence409) {
  // Craft a journal whose header claims an outage-ridden campaign config
  // but whose records came from the default config. Resume rebuilds the
  // header's world, re-executes, and must refuse with 409 at the first
  // record that does not match — never silently blend the two runs.
  scenarios::CampaignOptions liar;
  liar.healthEnabled = true;
  liar.breaker.failureThreshold = 5;
  liar.breaker.cooldownHours = 24;
  liar.outages.vantageDeaths.push_back({"field-nournet", {2013, 5, 8}});

  Json header = Json::object();
  header["type"] = Json::string("serve-session");
  header["version"] = Json::number(std::int64_t{1});
  header["snapshot"] = Json::string("paper");
  header["epoch"] = Json::number(std::int64_t{0});
  header["campaign"] = liar.headerJson();
  header["overlay"] = Json::array();

  const fs::path path = dir_ / "divergent.journal";
  {
    auto journal = CampaignJournal::start(path.string(), header);
    (void)scenarios::runPaperCampaign(scenarios::CampaignOptions{}, &journal);
  }

  serve::CampaignServer server({.workers = 1});
  const auto resumed = server.handle(
      post("/v1/session", campaignBody(path.string(), true)));
  EXPECT_EQ(resumed.statusCode, 409) << resumed.body;
  EXPECT_EQ(stringField(resumed, "error"), "journal-divergence");
  EXPECT_EQ(server.stats().divergences, 1u);
}

TEST_F(ServeRecoveryTest, ResumeRefusesOutOfRangeHeaderIntegers) {
  // The epoch and the campaign header's counts come from a file any client
  // can name; a double with no integer value is a 400, never a cast.
  serve::CampaignServer server({.workers = 1});
  const fs::path path = dir_ / "bad_integer.journal";
  int refused = 0;
  for (const double bad : {1e300, -1.0, 2.5}) {
    for (const bool inEpoch : {true, false}) {
      Json header = Json::object();
      header["type"] = Json::string("serve-session");
      header["version"] = Json::number(std::int64_t{1});
      header["snapshot"] = Json::string("paper");
      header["epoch"] = Json::number(inEpoch ? bad : 0.0);
      header["campaign"] = scenarios::CampaignOptions{}.headerJson();
      if (!inEpoch) header["campaign"]["quorum"] = Json::number(bad);
      header["overlay"] = Json::array();
      (void)CampaignJournal::start(path.string(), header);

      const auto resumed = server.handle(
          post("/v1/session", campaignBody(path.string(), true)));
      EXPECT_EQ(resumed.statusCode, 400) << resumed.body;
      const std::string error = stringField(resumed, "error");
      EXPECT_NE(error.find(inEpoch ? "epoch" : "quorum"), std::string::npos)
          << error;
      ++refused;
    }
  }
  EXPECT_EQ(server.stats().badRequests, static_cast<std::uint64_t>(refused));
}

TEST_F(ServeRecoveryTest, ResumeRejectsForeignAndMissingJournals) {
  serve::CampaignServer server({.workers = 1});
  server.addSnapshot("paper");

  // Missing file.
  const auto missing = server.handle(post(
      "/v1/session", campaignBody((dir_ / "absent.journal").string(), true)));
  EXPECT_EQ(missing.statusCode, 400) << missing.body;

  // A journal from the standalone campaign runner (not a serve-session
  // header) is refused rather than misinterpreted.
  const fs::path foreign = dir_ / "foreign.journal";
  {
    scenarios::CampaignOptions options;
    auto journal = CampaignJournal::start(foreign.string(),
                                          options.headerJson());
    (void)scenarios::runPaperCampaign(options, &journal);
  }
  const auto rejected = server.handle(
      post("/v1/session", campaignBody(foreign.string(), true)));
  EXPECT_EQ(rejected.statusCode, 400) << rejected.body;
  EXPECT_EQ(server.stats().badRequests, 2u);
}

}  // namespace
