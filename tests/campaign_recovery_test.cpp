// Crash-tolerant campaign tests (DESIGN.md §4.4): a journaled campaign
// killed at any record boundary and restarted must reproduce the
// uninterrupted run bit-for-bit. The exhaustive every-boundary sweep lives
// in bench/ablation_crash; this suite keeps a fast, deterministic sample of
// the same property in the tier-1 gate, plus the journal lifecycle
// contracts resume depends on (pure replay, simulated crash points,
// cross-thread resume).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "measure/journal.h"
#include "scenarios/campaign.h"

namespace {

using namespace urlf;
using measure::CampaignJournal;
namespace fs = std::filesystem;

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeFile(const fs::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Per-test temp directory, removed on teardown.
class CampaignRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("urlf_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// An outage+breaker campaign: exercises degraded rows, breaker events
  /// and OutagePlan state through the journal, not just the happy path.
  static scenarios::CampaignOptions outageOptions() {
    scenarios::CampaignOptions options;
    options.healthEnabled = true;
    options.breaker.failureThreshold = 5;
    options.breaker.cooldownHours = 24;
    options.outages.vantageDeaths.push_back({"field-nournet", {2013, 5, 8}});
    return options;
  }

  fs::path dir_;
};

TEST_F(CampaignRecoveryTest, SampledBoundaryResumeReproducesDigest) {
  const auto options = outageOptions();
  const fs::path fullPath = dir_ / "full.journal";
  auto journal = CampaignJournal::start(fullPath.string(),
                                        options.headerJson());
  const auto full = scenarios::runPaperCampaign(options, &journal);
  const std::string fullText = readFile(fullPath);
  const auto boundaries = CampaignJournal::recordBoundaries(fullText);
  ASSERT_GT(boundaries.size(), 10u);

  // Sample the boundary space: the very start (nothing but the header), a
  // spread of interior points, and the final boundary (pure replay).
  const std::vector<std::size_t> sample{
      0, boundaries.size() / 5, boundaries.size() / 2,
      boundaries.size() - 2, boundaries.size() - 1};
  const fs::path crashPath = dir_ / "crash.journal";
  for (const std::size_t k : sample) {
    SCOPED_TRACE("boundary " + std::to_string(k));
    writeFile(crashPath, std::string_view(fullText).substr(0, boundaries[k]));

    auto opened = CampaignJournal::open(crashPath.string());
    ASSERT_TRUE(opened.ok()) << opened.error();
    auto adopted =
        scenarios::CampaignOptions::fromHeaderJson(opened->header());
    ASSERT_TRUE(adopted.ok()) << adopted.error();

    const auto resumed =
        scenarios::runPaperCampaign(adopted.value(), &opened.value());
    EXPECT_EQ(resumed.digest, full.digest);
    EXPECT_EQ(resumed.confirmedCaseStudies, full.confirmedCaseStudies);
    EXPECT_EQ(resumed.degradedRows, full.degradedRows);
    // The resumed journal file must grow back byte-identical.
    EXPECT_EQ(readFile(crashPath), fullText);
  }
}

TEST_F(CampaignRecoveryTest, SimulatedCrashLeavesAValidResumableJournal) {
  const auto options = outageOptions();
  const fs::path path = dir_ / "crashed.journal";
  auto journal = CampaignJournal::start(path.string(), options.headerJson());
  journal.crashAfterAppends(37);
  EXPECT_THROW(
      { (void)scenarios::runPaperCampaign(options, &journal); },
      measure::SimulatedCrash);

  // The crash fired after the 37th append hit the disk; the file must be a
  // well-formed journal holding exactly those records.
  auto opened = CampaignJournal::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_EQ(opened->recordCount(), 37u);
  EXPECT_FALSE(opened->stats().tornTail);

  // And resuming it completes the campaign with the reference digest.
  const auto reference = scenarios::runPaperCampaign(options);
  auto adopted = scenarios::CampaignOptions::fromHeaderJson(opened->header());
  ASSERT_TRUE(adopted.ok()) << adopted.error();
  const auto resumed =
      scenarios::runPaperCampaign(adopted.value(), &opened.value());
  EXPECT_EQ(resumed.digest, reference.digest);
}

TEST_F(CampaignRecoveryTest, CompletedJournalResumesAsPureReplay) {
  const scenarios::CampaignOptions options;  // clean campaign
  const fs::path path = dir_ / "complete.journal";
  auto journal = CampaignJournal::start(path.string(), options.headerJson());
  const auto full = scenarios::runPaperCampaign(options, &journal);
  const std::string bytesBefore = readFile(path);

  auto opened = CampaignJournal::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_EQ(opened->replayRemaining(), opened->recordCount());

  const auto adopted =
      scenarios::CampaignOptions::fromHeaderJson(opened->header());
  ASSERT_TRUE(adopted.ok()) << adopted.error();
  const auto resumed =
      scenarios::runPaperCampaign(adopted.value(), &opened.value());

  // Nothing new was learned: zero appends, every record replayed over, and
  // the file bytes are untouched.
  EXPECT_EQ(opened->appendCount(), 0u);
  EXPECT_EQ(opened->replayRemaining(), 0u);
  EXPECT_EQ(resumed.digest, full.digest);
  EXPECT_EQ(readFile(path), bytesBefore);
}

TEST_F(CampaignRecoveryTest, JournalFromOneThreadCountResumesAtAnother) {
  // Performance knobs are deliberately NOT in the journal header: a
  // campaign journaled serial must resume pooled (and vice versa) into the
  // same bytes.
  auto options = outageOptions();
  options.classifyThreads = 1;
  const fs::path path = dir_ / "t1.journal";
  auto journal = CampaignJournal::start(path.string(), options.headerJson());
  const auto full = scenarios::runPaperCampaign(options, &journal);
  const std::string fullText = readFile(path);

  const auto boundaries = CampaignJournal::recordBoundaries(fullText);
  writeFile(path, std::string_view(fullText)
                      .substr(0, boundaries[boundaries.size() / 2]));

  auto opened = CampaignJournal::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error();
  auto adopted = scenarios::CampaignOptions::fromHeaderJson(opened->header());
  ASSERT_TRUE(adopted.ok()) << adopted.error();
  adopted.value().classifyThreads = 4;

  const auto resumed =
      scenarios::runPaperCampaign(adopted.value(), &opened.value());
  EXPECT_EQ(resumed.digest, full.digest);
  EXPECT_EQ(readFile(path), fullText);
}

TEST_F(CampaignRecoveryTest, MechanismCampaignResumeKeepsCausesDistinct) {
  // Regression: a campaign running packet-level mechanisms *and* a fault
  // plan journals timeouts of two different origins — injected transients
  // ("cause":"fault") and packet-filter kills ("cause":"packet-filter").
  // The header must carry the mechanism config, resume must reproduce the
  // digest, and the journaled causes must never collapse into one.
  scenarios::CampaignOptions options;
  options.world.packetMechanisms = true;
  options.world.faultRate = 0.02;
  const fs::path path = dir_ / "mechanisms.journal";
  auto journal = CampaignJournal::start(path.string(), options.headerJson());
  const auto full = scenarios::runPaperCampaign(options, &journal);
  const std::string fullText = readFile(path);

  // Both causes appear in the journal, attached to events.
  EXPECT_NE(fullText.find("\"cause\":\"packet-filter\""), std::string::npos);
  EXPECT_NE(fullText.find("\"cause\":\"fault\""), std::string::npos);

  // Resume from an interior boundary with options adopted from the header
  // alone — packetMechanisms must survive the header round-trip or the
  // resumed world diverges immediately.
  const auto boundaries = CampaignJournal::recordBoundaries(fullText);
  writeFile(path, std::string_view(fullText)
                      .substr(0, boundaries[boundaries.size() / 2]));
  auto opened = CampaignJournal::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error();
  auto adopted = scenarios::CampaignOptions::fromHeaderJson(opened->header());
  ASSERT_TRUE(adopted.ok()) << adopted.error();
  EXPECT_TRUE(adopted.value().world.packetMechanisms);

  const auto resumed =
      scenarios::runPaperCampaign(adopted.value(), &opened.value());
  EXPECT_EQ(resumed.digest, full.digest);
  EXPECT_EQ(readFile(path), fullText);
}

TEST_F(CampaignRecoveryTest, OutOfRangeHeaderIntegersAreRefusedOnResume) {
  // A JSON number is a double: 1e300, -1 and 2.5 have no int value, and
  // casting them would be undefined. Resume refuses each with one line.
  const report::Json clean = scenarios::CampaignOptions{}.headerJson();
  struct Field {
    const char* object;  ///< nested object, or nullptr for the top level
    const char* key;
  };
  const Field fields[] = {{"world", "rst_hold_down_hours"},
                          {"world", "quorum_vantages"},
                          {nullptr, "quorum"},
                          {"health", "failure_threshold"},
                          {"health", "cooldown_hours"}};
  const fs::path path = dir_ / "bad_integer.journal";
  for (const auto& field : fields) {
    for (const double bad : {1e300, -1.0, 2.5}) {
      report::Json header = clean;
      report::Json& holder =
          field.object != nullptr ? header[field.object] : header;
      holder[field.key] = report::Json::number(bad);
      (void)CampaignJournal::start(path.string(), header);
      auto opened = CampaignJournal::open(path.string());
      ASSERT_TRUE(opened.ok()) << opened.error();
      const auto adopted =
          scenarios::CampaignOptions::fromHeaderJson(opened->header());
      ASSERT_FALSE(adopted.ok()) << field.key << " = " << bad;
      EXPECT_NE(adopted.error().find(field.key), std::string::npos)
          << adopted.error();
      EXPECT_EQ(adopted.error().find('\n'), std::string::npos);
    }
  }
  // An in-range header still adopts.
  report::Json header = clean;
  header["quorum"] = report::Json::number(std::int64_t{2});
  const auto adopted = scenarios::CampaignOptions::fromHeaderJson(header);
  ASSERT_TRUE(adopted.ok()) << adopted.error();
  EXPECT_EQ(adopted.value().quorum, 2);
}

TEST_F(CampaignRecoveryTest, DivergentConfigIsCaughtNotSilentlyAccepted) {
  // Resume whose re-execution disagrees with the journaled records must die
  // loudly with JournalDivergence — never blend two campaigns' histories.
  const scenarios::CampaignOptions clean;
  const fs::path path = dir_ / "divergent.journal";
  auto journal = CampaignJournal::start(path.string(), clean.headerJson());
  (void)scenarios::runPaperCampaign(clean, &journal);

  auto opened = CampaignJournal::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error();
  // Deliberately ignore the journal header and replay with a different
  // world configuration.
  scenarios::CampaignOptions tampered;
  tampered.seed = scenarios::kPaperSeed + 1;
  EXPECT_THROW(
      { (void)scenarios::runPaperCampaign(tampered, &opened.value()); },
      measure::JournalDivergence);
}

}  // namespace
