// monitor: a resident MonitorSession in incremental mode over a streamed
// population with the scripted events on. Set-up is create() plus the
// tick-0 baseline; each operation is one runTick(). A round is one session
// of kTicks churn ticks, so every run repeats the same ticks (events at
// ticks 2, 4 and 6, then quiet ones); sessions are rebuilt between rounds
// outside the timed window.
//
// Checks: every round's chain digest equals the chain of an untimed
// MonitorMode::kFull session of the same options, and the scripted events
// show in the diffs — the Syrian Blue Coat consoles vanish at tick 2, a
// SmartFilter appears in PKU-NET (111.68.0.0/16) at tick 4, and each event
// tick (2, 4 and YemenNet's branding strip at 6) retests every URL.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "scenarios/monitor.h"

namespace perfbench {
namespace {

using namespace urlf;

constexpr std::uint64_t kStreamHosts = 20000;
constexpr int kTicks = 48;
constexpr std::size_t kThreads = 1;

scenarios::MonitorOptions monitorOptions(std::uint64_t seed,
                                         scenarios::MonitorMode mode) {
  scenarios::MonitorOptions options;
  options.seed = seed;
  options.streamHosts = kStreamHosts;
  options.ticks = kTicks;
  options.scriptedEvents = true;
  options.mode = mode;
  options.threads = kThreads;
  // Light churn over small cells, so most cells stay clean between ticks:
  // about four rebranded and one parked host per tick.
  options.hostsPerShard = 256;
  options.churn.rebrandRate = 4.0 / static_cast<double>(kStreamHosts);
  options.churn.parkRate = 1.0 / static_cast<double>(kStreamHosts);
  return options;
}

/// A session that has run its tick-0 baseline.
std::unique_ptr<scenarios::MonitorSession> startSession(
    const scenarios::MonitorOptions& options) {
  auto session = scenarios::MonitorSession::create(options);
  (void)session->runTick();
  return session;
}

bool hasNote(const scenarios::TickReport& report, const std::string& prefix,
             const std::string& suffix) {
  for (const auto& note : report.notes)
    if (note.rfind(prefix, 0) == 0 && note.size() >= suffix.size() &&
        note.compare(note.size() - suffix.size(), suffix.size(), suffix) == 0)
      return true;
  return false;
}

void checkEvents(Outcome& outcome, const std::vector<scenarios::TickReport>& ticks) {
  for (const auto& report : ticks) {
    if (report.tick == 2)
      outcome.expect(hasNote(report, "- Blue Coat ", "(SY)"),
                     "tick 2 diff shows the Syrian Blue Coat hidden");
    if (report.tick == 4)
      outcome.expect(hasNote(report, "+ McAfee SmartFilter 111.68.", "(PK)"),
                     "tick 4 diff shows the new PKU-NET SmartFilter");
    // The branding strip leaves the diff unchanged (the deny-page
    // redirect still names Netsweeper), but like every event it must force
    // a full retest.
    if (report.tick == 2 || report.tick == 4 || report.tick == 6)
      outcome.expect(report.urlsReused == 0 && report.urlsTested > 0,
                     "event tick " + std::to_string(report.tick) +
                         " retests every URL");
  }
}

}  // namespace

Outcome monitorUntraced(const RunConfig& config) {
  Outcome outcome;
  Timing timing;
  const auto options =
      monitorOptions(config.seed, scenarios::MonitorMode::kIncremental);
  std::unique_ptr<scenarios::MonitorSession> session;
  timeSetups(5, timing, [&] {
    session.reset();
    session = startSession(options);
  });

  std::vector<std::uint64_t> chains;
  std::vector<scenarios::TickReport> firstRound;
  double elapsed = 0.0;
  CoreRotation cores;
  double nextMove = 0.0;
  while (elapsed < config.seconds) {
    if (!session) session = startSession(options);
    if (elapsed >= nextMove) {
      cores.next();
      nextMove += config.seconds / static_cast<double>(cores.size());
    }
    const auto start = Clock::now();
    for (int t = 0; t < kTicks; ++t) {
      const auto tickStart = Clock::now();
      auto report = session->runTick();
      timing.opMs.push_back(msSince(tickStart));
      if (chains.empty()) firstRound.push_back(std::move(report));
    }
    elapsed += secondsSince(start);
    timing.roundEnds.push_back(timing.opMs.size());
    chains.push_back(session->chainDigest());
    session.reset();
  }
  timing.windowSeconds = elapsed;
  addEndToEnd(outcome, timing);

  // Reference: the same options in kFull mode, untimed.
  auto full = startSession(
      monitorOptions(config.seed, scenarios::MonitorMode::kFull));
  std::vector<scenarios::TickReport> fullTicks;
  for (int t = 0; t < kTicks; ++t) fullTicks.push_back(full->runTick());
  const auto reference = full->chainDigest();

  outcome.attempted = timing.opMs.size();
  for (const auto chain : chains)
    if (chain != reference) outcome.failed += kTicks;
  outcome.expect(outcome.failed == 0,
                 "every incremental round reproduces the kFull chain digest");
  checkEvents(outcome, firstRound);
  checkEvents(outcome, fullTicks);
  return outcome;
}

void monitorTraced(const RunConfig& config, Outcome& outcome) {
  const auto options =
      monitorOptions(config.seed, scenarios::MonitorMode::kIncremental);

  // Two sessions advance tick by tick, one untraced and one traced, so
  // warm-up favours neither.
  auto plain = startSession(options);
  Tracer tracer;
  auto session = startSession(options);
  double untracedMs = 0.0;
  double tracedMs = 0.0;
  std::vector<scenarios::TickReport> ticks;
  for (int t = 0; t < kTicks; ++t) {
    {
      const auto start = Clock::now();
      (void)plain->runTick();
      untracedMs += msSince(start);
    }
    tracer.beginOp(static_cast<std::uint64_t>(t));
    const auto start = Clock::now();
    {
      const auto span = tracer.span("scenarios.monitor_tick");
      ticks.push_back(session->runTick());
    }
    tracedMs += msSince(start);
    ++outcome.attempted;
  }
  if (!config.traceDir.empty())
    tracer.write(config.traceDir + "/monitor.jsonl");
  checkEvents(outcome, ticks);

  addOverhead(outcome, "monitor", untracedMs, tracedMs, kTicks);
  double cells = 0, hits = 0, misses = 0, tested = 0, reused = 0;
  double scanMs = 0, identifyMs = 0, testMs = 0;
  for (const auto& report : ticks) {
    cells += static_cast<double>(report.cellsRebuilt);
    hits += static_cast<double>(report.validationHits);
    misses += static_cast<double>(report.validationMisses);
    tested += static_cast<double>(report.urlsTested);
    reused += static_cast<double>(report.urlsReused);
    scanMs += report.scanMs;
    identifyMs += report.identifyMs;
    testMs += report.testMs;
  }
  const double n = static_cast<double>(ticks.size());
  const auto base = static_cast<std::uint64_t>(ticks.size());
  outcome.add("scan.cells_rebuilt", cells / n, "count", base);
  outcome.add("core.validation_hits", hits / n, "count", base);
  outcome.add("core.validation_misses", misses / n, "count", base);
  outcome.add("measure.urls_tested", tested / n, "count", base);
  outcome.add("measure.urls_reused", reused / n, "count", base);
  // Stage times the program reports itself in each TickReport.
  outcome.add("scan.rescan_ms", scanMs / n, "ms", base);
  outcome.add("core.reidentify_ms", identifyMs / n, "ms", base);
  outcome.add("measure.retest_ms", testMs / n, "ms", base);
}

}  // namespace perfbench
