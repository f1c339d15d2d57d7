// Checkpoint compaction and resume (DESIGN.md §4.7): a monitor checkpoint is
// one O(state) snapshot, resume continues the campaign with digests
// byte-identical to the unbroken run, and any corruption — truncation at any
// byte, a flipped bit anywhere — fails loudly with a one-line reason instead
// of silently resuming a diverged campaign.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "measure/journal.h"
#include "scenarios/monitor.h"

namespace urlf::scenarios {
namespace {

using measure::CampaignJournal;

MonitorOptions tinyWorld() {
  MonitorOptions options;
  options.streamHosts = 300;
  options.hostsPerShard = 64;
  options.ticks = 4;
  options.churn.rebrandRate = 0.08;
  options.churn.parkRate = 0.02;
  options.churn.dbMutationsPerTick = 4;
  return options;
}

std::string tempPath(const char* stem) {
  return ::testing::TempDir() + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// -------------------------------------------------------- Round trip -----

TEST(MonitorCheckpoint, ResumeContinuesTheExactDigestChain) {
  const auto options = tinyWorld();
  const auto unbroken = runMonitor(options);
  ASSERT_EQ(unbroken.ticks.size(), 5u);

  // Crash after every possible tick; resume must reproduce the remaining
  // ticks' digests and land on the same chain digest.
  for (int crashAfter = 0; crashAfter <= options.ticks; ++crashAfter) {
    const auto path = tempPath("monitor_roundtrip.urlfj");
    auto session = MonitorSession::create(options);
    for (int t = 0; t <= crashAfter; ++t) session->runTick();
    session->writeCheckpoint(path);
    session.reset();  // the crash

    auto resumed = MonitorSession::resume(path);
    ASSERT_TRUE(resumed.ok()) << resumed.error();
    EXPECT_EQ((*resumed.value()).tick(), crashAfter);
    for (int t = crashAfter + 1; t <= options.ticks; ++t) {
      const auto report = (*resumed.value()).runTick();
      EXPECT_EQ(report.digestHex(), unbroken.ticks[t].digestHex())
          << "crash after tick " << crashAfter << ", resumed tick " << t;
    }
    EXPECT_EQ((*resumed.value()).chainDigest(), unbroken.chainDigest)
        << "crash after tick " << crashAfter;
    std::remove(path.c_str());
  }
}

TEST(MonitorCheckpoint, CheckpointsAreModeAgnostic) {
  // Checkpoint under the full reference pipeline, resume incrementally (and
  // vice versa): the chain must not notice.
  auto options = tinyWorld();
  options.ticks = 3;
  const auto unbroken = runMonitor(options);

  for (const auto writeMode : {MonitorMode::kFull, MonitorMode::kIncremental}) {
    const auto resumeMode = writeMode == MonitorMode::kFull
                                ? MonitorMode::kIncremental
                                : MonitorMode::kFull;
    auto writeOptions = options;
    writeOptions.mode = writeMode;
    const auto path = tempPath("monitor_modeswitch.urlfj");
    auto session = MonitorSession::create(writeOptions);
    session->runTick();
    session->runTick();
    session->writeCheckpoint(path);
    session.reset();

    auto resumed = MonitorSession::resume(path, resumeMode, 2);
    ASSERT_TRUE(resumed.ok()) << resumed.error();
    ASSERT_EQ((*resumed.value()).tick(), 1);  // ticks 0 and 1 ran pre-crash
    for (int t = 2; t <= options.ticks; ++t) (*resumed.value()).runTick();
    EXPECT_EQ((*resumed.value()).chainDigest(), unbroken.chainDigest)
        << toString(writeMode) << " -> " << toString(resumeMode);
    std::remove(path.c_str());
  }
}

TEST(MonitorCheckpoint, SnapshotSizeIsIndependentOfHistoryLength) {
  // The checkpoint is a compaction, not a log: more ticks, same size.
  auto options = tinyWorld();
  options.ticks = 1;
  const auto shortPath = tempPath("monitor_short.urlfj");
  (void)runMonitor(options, shortPath);
  options.ticks = 6;
  const auto longPath = tempPath("monitor_long.urlfj");
  (void)runMonitor(options, longPath);

  const auto shortSize = slurp(shortPath).size();
  const auto longSize = slurp(longPath).size();
  ASSERT_GT(shortSize, 0u);
  // Allow drift from churned verdict contents, but nothing O(ticks).
  EXPECT_LT(longSize, shortSize * 2) << shortSize << " vs " << longSize;
  std::remove(shortPath.c_str());
  std::remove(longPath.c_str());
}

// ------------------------------------------------------- Corruption ------

class MonitorCorruptionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto options = tinyWorld();
    options.ticks = 2;
    const auto path = tempPath("monitor_corruption.urlfj");
    (void)runMonitor(options, path);
    text_ = slurp(path);
    std::remove(path.c_str());
    ASSERT_FALSE(text_.empty());
  }

  /// Resume from raw journal text; empty error string = success.
  std::string resumeError(const std::string& text) {
    auto journal = CampaignJournal::fromText(text);
    if (!journal.ok()) return journal.error();
    auto resumed = MonitorSession::resumeFromJournal(
        std::move(journal.value()), MonitorMode::kIncremental, 0);
    if (!resumed.ok()) return resumed.error();
    return "";
  }

  static bool oneLine(const std::string& message) {
    return !message.empty() &&
           message.find('\n') == std::string::npos;
  }

  std::string text_;
};

TEST_F(MonitorCorruptionFixture, IntactCheckpointResumes) {
  EXPECT_EQ(resumeError(text_), "");
}

TEST_F(MonitorCorruptionFixture, EveryTruncationFailsWithOneLine) {
  // Sample every record boundary, a byte stride across the whole file, and
  // the dense tail where the torn write actually lands.
  std::vector<std::size_t> offsets;
  for (const auto boundary : CampaignJournal::recordBoundaries(text_))
    offsets.push_back(boundary);
  for (std::size_t i = 0; i < text_.size(); i += 97) offsets.push_back(i);
  for (std::size_t i = text_.size() > 48 ? text_.size() - 48 : 0;
       i < text_.size(); ++i)
    offsets.push_back(i);

  for (const auto offset : offsets) {
    if (offset >= text_.size()) continue;
    const auto error = resumeError(text_.substr(0, offset));
    EXPECT_TRUE(oneLine(error)) << "truncation at byte " << offset
                                << " resumed (or failed unreadably): '"
                                << error << "'";
  }
}

TEST_F(MonitorCorruptionFixture, SampledBitFlipsFail) {
  for (std::size_t offset = 0; offset < text_.size();
       offset += 131) {
    for (const int bit : {0, 3, 7}) {
      std::string flipped = text_;
      flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
      if (flipped == text_) continue;
      const auto error = resumeError(flipped);
      EXPECT_TRUE(oneLine(error))
          << "bit " << bit << " at byte " << offset << ": '" << error << "'";
    }
  }
}

TEST_F(MonitorCorruptionFixture, OutOfRangeIntegersAreRefusedWithOneLine) {
  // Well-formed journals whose integer fields hold a double with no
  // integer value: each is refused, never cast.
  auto intact = CampaignJournal::fromText(text_);
  ASSERT_TRUE(intact.ok()) << intact.error();
  const report::Json header = intact.value().header();
  const report::Json state = intact.value().records().back();
  const auto resumeWith = [](const report::Json& h, const report::Json& s) {
    auto journal = CampaignJournal::start("", h);
    journal.sync(s);
    auto resumed = MonitorSession::resumeFromJournal(
        std::move(journal), MonitorMode::kIncremental, 0);
    return resumed.ok() ? std::string() : resumed.error();
  };
  ASSERT_EQ(resumeWith(header, state), "");

  struct Field {
    const char* object;  ///< nested object, or nullptr for the top level
    const char* key;
  };
  const Field headerFields[] = {{nullptr, "tick_hours"},
                                {"stream", "countries"},
                                {"churn", "db_mutations_per_tick"},
                                {"health", "failure_threshold"},
                                {"health", "cooldown_hours"}};
  for (const double bad : {1e300, -1.0, 2.5}) {
    for (const auto& field : headerFields) {
      report::Json tampered = header;
      report::Json& holder =
          field.object != nullptr ? tampered[field.object] : tampered;
      holder[field.key] = report::Json::number(bad);
      const auto error = resumeWith(tampered, state);
      EXPECT_TRUE(oneLine(error)) << field.key << " = " << bad;
      EXPECT_NE(error.find(field.key), std::string::npos) << error;
    }
    report::Json tampered = state;
    tampered["tick"] = report::Json::number(bad);
    const auto error = resumeWith(header, tampered);
    EXPECT_TRUE(oneLine(error)) << "tick = " << bad;
    EXPECT_NE(error.find("tick"), std::string::npos) << error;
  }
}

TEST_F(MonitorCorruptionFixture, ForeignHeaderIsRejected) {
  report::Json header = report::Json::object();
  header["type"] = report::Json::string("campaign-config");
  header["version"] = report::Json::number(std::int64_t{1});
  auto journal = CampaignJournal::start("", header);
  auto resumed = MonitorSession::resumeFromJournal(
      std::move(journal), MonitorMode::kIncremental, 0);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.error().find("monitor-config"), std::string::npos);
}

TEST_F(MonitorCorruptionFixture, MissingFileFailsWithOneLine) {
  auto resumed = MonitorSession::resume(tempPath("does_not_exist.urlfj"));
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(oneLine(resumed.error()));
}

}  // namespace
}  // namespace urlf::scenarios
