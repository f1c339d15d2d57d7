// The monitor's correctness contract (DESIGN.md §4.7): the incremental hot
// path — dirty-cell re-scan, cached validation, reused verdicts — must
// produce tick digests byte-identical to the full-rebuild reference, at any
// thread count, across seeds and churn intensities. Mode and threads are
// performance knobs; observable output may not depend on them.
#include <gtest/gtest.h>

#include "scenarios/monitor.h"

namespace urlf::scenarios {
namespace {

MonitorOptions smallWorld(std::uint64_t seed) {
  MonitorOptions options;
  options.seed = seed;
  options.streamHosts = 600;
  options.hostsPerShard = 64;  // many cells, so dirtiness is visible
  options.ticks = 5;
  // Aggressive churn: most ticks dirty several cells and flip verdicts.
  options.churn.rebrandRate = 0.10;
  options.churn.parkRate = 0.03;
  options.churn.dbMutationsPerTick = 5;
  return options;
}

void expectTickEquivalence(const MonitorReport& reference,
                           const MonitorReport& candidate,
                           const std::string& what) {
  ASSERT_EQ(reference.ticks.size(), candidate.ticks.size()) << what;
  for (std::size_t i = 0; i < reference.ticks.size(); ++i) {
    const auto& ref = reference.ticks[i];
    const auto& got = candidate.ticks[i];
    EXPECT_EQ(ref.digestHex(), got.digestHex())
        << what << " diverged at tick " << ref.tick;
    EXPECT_EQ(ref.atHours, got.atHours) << what;
    EXPECT_EQ(ref.newlyConfirmed, got.newlyConfirmed) << what;
    EXPECT_EQ(ref.decommissioned, got.decommissioned) << what;
    EXPECT_EQ(ref.relocated, got.relocated) << what;
    EXPECT_EQ(ref.verdictFlips, got.verdictFlips) << what;
  }
  EXPECT_EQ(reference.chainDigestHex(), candidate.chainDigestHex()) << what;
}

// ------------------------------------------------- Digest equivalence ----

TEST(MonitorEquivalence, IncrementalMatchesFullAcrossSeedsAndThreads) {
  for (const std::uint64_t seed : {kPaperSeed, std::uint64_t{7},
                                   std::uint64_t{0xDECAFBAD}}) {
    MonitorOptions reference = smallWorld(seed);
    reference.mode = MonitorMode::kFull;
    reference.threads = 1;
    const auto full = runMonitor(reference);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      for (const auto mode : {MonitorMode::kFull, MonitorMode::kIncremental}) {
        if (mode == MonitorMode::kFull && threads == 1) continue;
        MonitorOptions options = smallWorld(seed);
        options.mode = mode;
        options.threads = threads;
        const auto report = runMonitor(options);
        expectTickEquivalence(
            full, report,
            std::string(toString(mode)) + "/t" + std::to_string(threads) +
                "/seed" + std::to_string(seed));
      }
    }
  }
}

TEST(MonitorEquivalence, HoldsWithoutScriptedEvents) {
  MonitorOptions options = smallWorld(11);
  options.scriptedEvents = false;
  options.ticks = 4;
  options.mode = MonitorMode::kFull;
  const auto full = runMonitor(options);
  options.mode = MonitorMode::kIncremental;
  const auto incremental = runMonitor(options);
  expectTickEquivalence(full, incremental, "no-events");
}

TEST(MonitorEquivalence, HoldsWithHealthBreakersEnabled) {
  MonitorOptions options = smallWorld(23);
  options.ticks = 4;
  options.healthEnabled = true;
  options.mode = MonitorMode::kFull;
  const auto full = runMonitor(options);
  options.mode = MonitorMode::kIncremental;
  const auto incremental = runMonitor(options);
  expectTickEquivalence(full, incremental, "health-on");
}

TEST(MonitorEquivalence, HoldsWithoutStreamedHosts) {
  // PaperWorld only: the delta machinery must degrade gracefully when there
  // is no churn feed at all (every tick rebuilds just the eager cell).
  MonitorOptions options;
  options.streamHosts = 0;
  options.ticks = 4;
  options.mode = MonitorMode::kFull;
  const auto full = runMonitor(options);
  options.mode = MonitorMode::kIncremental;
  const auto incremental = runMonitor(options);
  expectTickEquivalence(full, incremental, "no-stream");
}

// ------------------------------------------------- Incremental savings ----

TEST(MonitorIncremental, QuietTicksTouchLittle) {
  MonitorOptions options = smallWorld(kPaperSeed);
  options.scriptedEvents = false;
  options.churn.rebrandRate = 0.01;
  options.churn.parkRate = 0.0;
  options.churn.dbMutationsPerTick = 1;
  options.mode = MonitorMode::kIncremental;
  const auto session = MonitorSession::create(options);
  ASSERT_NE(session->churnFeed(), nullptr);

  const auto baseline = session->runTick();
  // The baseline builds every cell and validates every candidate fresh.
  EXPECT_EQ(baseline.cellsRebuilt, baseline.cellCount);
  EXPECT_GE(baseline.docsReindexed, options.streamHosts);
  EXPECT_EQ(baseline.validationHits, 0u);
  EXPECT_EQ(baseline.urlsReused, 0u);

  std::size_t churnedTotal = 0;
  for (int t = 1; t <= 4; ++t) {
    const auto tick = session->runTick();
    std::size_t churned = 0;
    for (std::uint64_t id = 0; id < options.streamHosts; ++id)
      if (session->churnFeed()->dirtyAt(id, static_cast<std::uint64_t>(t)))
        ++churned;
    churnedTotal += churned;
    // Quiet ticks rebuild a strict minority of cells (the eager cell plus
    // the few holding churned hosts)...
    EXPECT_LT(tick.cellsRebuilt, tick.cellCount / 2)
        << "tick " << tick.tick << " rebuilt " << tick.cellsRebuilt << "/"
        << tick.cellCount;
    // ...re-index only the churned hosts (no scripted event runs, so no
    // bound surface's banner moves and no eager doc changes)...
    EXPECT_LE(tick.docsReindexed, churned) << "tick " << tick.tick;
    // ...reuse the bulk of prior validations...
    EXPECT_GT(tick.validationHits, tick.validationMisses)
        << "tick " << tick.tick;
    // ...and reuse the bulk of prior verdicts.
    EXPECT_GT(tick.urlsReused, tick.urlsTested) << "tick " << tick.tick;
  }
  EXPECT_GT(churnedTotal, 0u) << "the churn rate should dirty some hosts";
}

TEST(MonitorIncremental, ScriptedEventForcesFullRetest) {
  MonitorOptions options = smallWorld(kPaperSeed);
  options.churn.dbMutationsPerTick = 0;
  options.churn.rebrandRate = 0.0;
  options.churn.parkRate = 0.0;
  options.ticks = 2;
  options.mode = MonitorMode::kIncremental;
  const auto report = runMonitor(options);

  // Tick 1: nothing changed — everything reused.
  EXPECT_EQ(report.ticks[1].urlsTested, 0u);
  // Tick 2: the hide event moved the middlebox epoch — every URL retested.
  EXPECT_EQ(report.ticks[2].urlsReused, 0u);
  EXPECT_GT(report.ticks[2].urlsTested, 0u);
}

TEST(MonitorReportJson, TickReportRoundTripsItsCounters) {
  MonitorOptions options = smallWorld(3);
  options.ticks = 1;
  const auto report = runMonitor(options);
  const auto json = report.ticks[1].toJson();
  ASSERT_TRUE(json.isObject());
  EXPECT_EQ(*json.find("tick")->asNumber(), 1.0);
  EXPECT_EQ(*json.find("digest")->asString(), report.ticks[1].digestHex());
  EXPECT_EQ(*json.find("urls_tested")->asNumber(),
            static_cast<double>(report.ticks[1].urlsTested));
  EXPECT_EQ(*json.find("cells_rebuilt")->asNumber(),
            static_cast<double>(report.ticks[1].cellsRebuilt));
  EXPECT_EQ(*json.find("docs_reindexed")->asNumber(),
            static_cast<double>(report.ticks[1].docsReindexed));
  EXPECT_GT(report.ticks[1].docsReindexed, 0u);
}

}  // namespace
}  // namespace urlf::scenarios
