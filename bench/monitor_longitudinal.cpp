// Longitudinal monitoring bench: the incremental hot path vs the full
// reference (DESIGN.md §4.7).
//
// A monitoring campaign re-runs scan → identify → re-test on a cadence. The
// full reference rebuilds the banner index, revalidates every candidate, and
// refetches every test URL each tick; the incremental pipeline rebuilds only
// the documents the churn feed marks dirty, reuses validations whose surface
// epoch is unchanged, and reuses verdicts no DB-mutation window touched.
// Both must produce byte-identical tick digests — this bench runs every
// (hosts × threads × mode) cell, asserts the digest sequences agree, and
// exits non-zero on any divergence.
//
// The churn feed is sized in absolute terms (~4 rebrands + ~1 parking per
// tick) rather than as a rate, so the per-tick delta is constant while the
// world grows: incremental cost tracks the delta, full cost tracks the
// world, and the speedup scales with host count.
//
// The resume section checkpoints campaigns of increasing length and times
// MonitorSession::resume: the checkpoint is an O(state) compaction, so
// resume cost must be flat in tick count (replay is clock/DB bookkeeping
// only — no scanning, no fetching).
//
// Usage: monitor_longitudinal [--quick] [--out PATH]
//   --quick  20k-host row only, fewer ticks, skips the 12-tick resume point
//   --out    output JSON path (default BENCH_monitor.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "report/json.h"
#include "scenarios/monitor.h"

namespace {

using namespace urlf;
using Clock = std::chrono::steady_clock;

struct ModeRun {
  scenarios::MonitorMode mode;
  std::size_t threads;
  double wallMs = 0.0;
  double steadyMs = 0.0;  ///< mean per-tick ms excluding the baseline
  scenarios::MonitorReport report;
};

scenarios::MonitorOptions benchOptions(std::uint64_t hosts, int ticks) {
  scenarios::MonitorOptions options;
  options.streamHosts = hosts;
  options.hostsPerShard = 256;
  options.ticks = ticks;
  // Constant absolute churn regardless of world size (see file comment).
  options.churn.rebrandRate = 4.0 / static_cast<double>(hosts);
  options.churn.parkRate = 1.0 / static_cast<double>(hosts);
  options.churn.dbMutationsPerTick = 3;
  // The scripted events force full index rebuilds (structural) and full
  // retests by design; the timed rows measure steady-state churn instead.
  options.scriptedEvents = false;
  return options;
}

ModeRun timeRun(const scenarios::MonitorOptions& base,
                scenarios::MonitorMode mode, std::size_t threads) {
  ModeRun run;
  run.mode = mode;
  run.threads = threads;
  auto options = base;
  options.mode = mode;
  options.threads = threads;
  const auto start = Clock::now();
  run.report = scenarios::runMonitor(options);
  run.wallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  double steady = 0.0;
  for (std::size_t i = 1; i < run.report.ticks.size(); ++i) {
    const auto& tick = run.report.ticks[i];
    steady += tick.scanMs + tick.identifyMs + tick.testMs;
  }
  run.steadyMs = run.report.ticks.size() > 1
                     ? steady / static_cast<double>(run.report.ticks.size() - 1)
                     : 0.0;
  return run;
}

double medianResumeMs(const std::string& path, int repeats) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    auto resumed = scenarios::MonitorSession::resume(path);
    const double millis =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (!resumed.ok()) {
      std::cerr << "monitor_longitudinal: resume failed: " << resumed.error()
                << "\n";
      std::exit(1);
    }
    samples.push_back(millis);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_monitor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::cerr << "usage: monitor_longitudinal [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const int ticks = quick ? 4 : 12;
  const std::vector<std::uint64_t> hostRows =
      quick ? std::vector<std::uint64_t>{20000}
            : std::vector<std::uint64_t>{20000, 100000};
  const std::vector<std::size_t> threadCols{1, 4};

  report::Json root = report::Json::object();
  root["quick"] = report::Json::boolean(quick);
  root["cores"] = report::Json::number(
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  root["ticks"] = report::Json::number(std::int64_t{ticks});
  report::Json rows = report::Json::array();
  bool allEqual = true;

  for (const auto hosts : hostRows) {
    const auto base = benchOptions(hosts, ticks);
    report::Json rowJson = report::Json::object();
    rowJson["hosts"] = report::Json::string(std::to_string(hosts));
    report::Json cells = report::Json::array();

    const scenarios::MonitorReport* reference = nullptr;
    std::vector<ModeRun> runs;
    for (const auto threads : threadCols)
      for (const auto mode : {scenarios::MonitorMode::kFull,
                              scenarios::MonitorMode::kIncremental})
        runs.push_back(timeRun(base, mode, threads));
    reference = &runs.front().report;

    double fullMs = 0.0;
    double incrementalMs = 0.0;
    double fullSteadyMs = 0.0;
    double incrementalSteadyMs = 0.0;
    for (const auto& run : runs) {
      // Every cell must reproduce the reference digest sequence exactly.
      bool equal = run.report.ticks.size() == reference->ticks.size() &&
                   run.report.chainDigest == reference->chainDigest;
      if (equal)
        for (std::size_t i = 0; i < run.report.ticks.size(); ++i)
          if (run.report.ticks[i].digest != reference->ticks[i].digest)
            equal = false;
      if (!equal) allEqual = false;

      if (run.threads == threadCols.back()) {
        if (run.mode == scenarios::MonitorMode::kFull) {
          fullMs = run.wallMs;
          fullSteadyMs = run.steadyMs;
        } else {
          incrementalMs = run.wallMs;
          incrementalSteadyMs = run.steadyMs;
        }
      }

      const auto& last = run.report.ticks.back();
      report::Json cell = report::Json::object();
      cell["mode"] = report::Json::string(std::string(toString(run.mode)));
      cell["threads"] =
          report::Json::number(static_cast<std::int64_t>(run.threads));
      cell["wall_ms"] = report::Json::number(run.wallMs);
      cell["steady_tick_ms"] = report::Json::number(run.steadyMs);
      cell["chain_digest"] = report::Json::string(run.report.chainDigestHex());
      cell["digests_equal"] = report::Json::boolean(equal);
      cell["last_cells_rebuilt"] =
          report::Json::number(static_cast<std::int64_t>(last.cellsRebuilt));
      cell["cell_count"] =
          report::Json::number(static_cast<std::int64_t>(last.cellCount));
      cell["last_docs_reindexed"] =
          report::Json::number(static_cast<std::int64_t>(last.docsReindexed));
      cell["last_urls_tested"] =
          report::Json::number(static_cast<std::int64_t>(last.urlsTested));
      cell["last_urls_reused"] =
          report::Json::number(static_cast<std::int64_t>(last.urlsReused));
      cells.push(std::move(cell));

      std::fprintf(stderr,
                   "monitor[%7llu hosts, %-11s t%zu]: %8.1fms wall, "
                   "%7.1fms/tick steady, chain=%s%s\n",
                   static_cast<unsigned long long>(hosts),
                   std::string(toString(run.mode)).c_str(), run.threads,
                   run.wallMs, run.steadyMs,
                   run.report.chainDigestHex().c_str(),
                   equal ? "" : "  DIGEST MISMATCH");
    }

    rowJson["cells"] = std::move(cells);
    if (incrementalMs > 0.0)
      rowJson["speedup"] = report::Json::number(fullMs / incrementalMs);
    if (incrementalSteadyMs > 0.0)
      rowJson["steady_tick_speedup"] =
          report::Json::number(fullSteadyMs / incrementalSteadyMs);
    rows.push(std::move(rowJson));
  }
  root["rows"] = std::move(rows);
  root["all_equal"] = report::Json::boolean(allEqual);

  // --- resume flatness ------------------------------------------------------
  // Checkpoint campaigns of increasing length; resume cost must not grow
  // with history (the snapshot is O(state), replay is bookkeeping).
  {
    const std::vector<int> tickPoints =
        quick ? std::vector<int>{2, 6} : std::vector<int>{2, 6, 12};
    report::Json resume = report::Json::object();
    report::Json points = report::Json::array();
    double minMs = 0.0;
    double maxMs = 0.0;
    auto options = benchOptions(20000, 2);
    options.threads = threadCols.back();
    for (const auto tickCount : tickPoints) {
      options.ticks = tickCount;
      const std::string path = outPath + ".ckpt.tmp";
      (void)scenarios::runMonitor(options, path);
      const double millis = medianResumeMs(path, 3);
      std::remove(path.c_str());
      if (minMs == 0.0 || millis < minMs) minMs = millis;
      if (millis > maxMs) maxMs = millis;
      report::Json point = report::Json::object();
      point["ticks"] = report::Json::number(std::int64_t{tickCount});
      point["resume_ms"] = report::Json::number(millis);
      points.push(std::move(point));
      std::fprintf(stderr, "resume[%2d ticks]: %.1fms\n", tickCount, millis);
    }
    resume["points"] = std::move(points);
    const double maxOverMin = minMs > 0.0 ? maxMs / minMs : 0.0;
    resume["max_over_min"] = report::Json::number(maxOverMin);
    const bool flat = maxOverMin > 0.0 && maxOverMin < 3.0;
    resume["flat"] = report::Json::boolean(flat);
    root["resume"] = std::move(resume);
    if (!flat) {
      std::cerr << "monitor_longitudinal: FAIL — resume cost grows with tick "
                   "count (max/min = "
                << maxOverMin << ")\n";
      std::ofstream file(outPath);
      file << root.dump(2) << "\n";
      return 1;
    }
  }

  std::ofstream file(outPath);
  if (!file) {
    std::cerr << "monitor_longitudinal: cannot open " << outPath
              << " for writing\n";
    return 1;
  }
  file << root.dump(2) << "\n";
  std::cout << root.dump(2) << "\n";

  if (!allEqual) {
    std::cerr << "monitor_longitudinal: FAIL — incremental and full digests "
                 "diverge\n";
    return 1;
  }
  return 0;
}
