#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

namespace perfbench {
namespace {

/// Process peak resident set (VmHWM) in MiB; 0 when unreadable.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// Median of a sample (empty -> 0).
double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// The latency with ten samples beyond it (the highest such percentile).
double tailOf(std::vector<double> latencies) {
  std::sort(latencies.begin(), latencies.end());
  const std::size_t n = latencies.size();
  return n > 10 ? latencies[n - 11] : (n ? latencies.back() : 0.0);
}

}  // namespace

void Outcome::expect(bool condition, const std::string& what) {
  if (condition) return;
  // Each distinct failed check is reported once.
  static std::set<std::string> reported;
  if (reported.insert(what).second)
    std::cerr << "perfbench: check failed: " << what << "\n";
  correct = false;
}

void addEndToEnd(Outcome& outcome, const Timing& timing) {
  const std::size_t n = timing.opMs.size();
  // Windows close at the first round end that gives them kTailWindow
  // operations; a short last stretch joins the window before it.
  std::vector<double> tails;
  std::size_t begin = 0;
  for (const std::size_t end : timing.roundEnds) {
    if (end - begin < kTailWindow) continue;
    if (n - end < kTailWindow) break;
    tails.push_back(tailOf({timing.opMs.begin() + static_cast<std::ptrdiff_t>(begin),
                            timing.opMs.begin() + static_cast<std::ptrdiff_t>(end)}));
    begin = end;
  }
  tails.push_back(tailOf({timing.opMs.begin() + static_cast<std::ptrdiff_t>(begin),
                          timing.opMs.end()}));
  outcome.add("setup_s", median(timing.setupSeconds), "s");
  outcome.add("ops_per_s",
              timing.windowSeconds > 0
                  ? static_cast<double>(n) / timing.windowSeconds
                  : 0.0,
              "1/s");
  outcome.add("p50_ms", median(timing.opMs), "ms");
  outcome.add("tail_ms", median(tails), "ms");
  outcome.add("peak_rss_mb", peakRssMb(), "MiB");
  outcome.expect(n >= 40, "at least 40 timed operations (got " +
                              std::to_string(n) + ")");
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name)
    : tracer_(&tracer),
      index_(static_cast<std::int32_t>(tracer.spans_.size())) {
  Span span;
  span.name = name;
  span.parent = tracer.stack_.empty() ? -1 : tracer.stack_.back();
  span.op = tracer.op_;
  span.startNs = tracer.nowNs();
  tracer.spans_.push_back(span);
  tracer.stack_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_->spans_[static_cast<std::size_t>(index_)].endNs = tracer_->nowNs();
  tracer_->stack_.pop_back();
}

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::record(std::string_view name, std::int64_t startNs,
                    std::int64_t endNs) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.startNs = startNs;
  span.endNs = endNs;
  spans_.push_back(span);
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::vector<double> childNs(spans_.size(), 0.0);
  for (const auto& span : spans_)
    if (span.parent >= 0)
      childNs[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.endNs - span.startNs);
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    auto& layer = out[std::string(span.name)];
    const double duration = static_cast<double>(span.endNs - span.startNs);
    layer.totalNs += duration;
    layer.selfNs += duration - childNs[i];
    ++layer.spans;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace " << path << "\n";
    return;
  }
  for (const auto& span : spans_)
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.startNs
        << ",\"end_ns\":" << span.endNs << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << "}\n";
}

void addLayer(Outcome& outcome, const Tracer& tracer, const std::string& span,
              const std::string& metric, std::string_view unit, double per) {
  const auto layers = tracer.layers();
  const auto it = layers.find(span);
  const double scale = unit == "s"    ? 1e-9
                       : unit == "ms" ? 1e-6
                       : unit == "us" ? 1e-3
                                      : 1.0;
  const double spans =
      it == layers.end() ? 0.0 : static_cast<double>(it->second.spans);
  const double base = per > 0 ? per : spans;
  outcome.add(metric, spans > 0 ? it->second.selfNs / base * scale : 0.0,
              std::string(unit), static_cast<std::uint64_t>(base));
  outcome.expect(spans > 0, "traced span " + span + " was recorded");
}

CoreRotation::CoreRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
}

CoreRotation::~CoreRotation() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus_) CPU_SET(cpu, &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

void CoreRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_++ % cpus_.size()], &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

int runRounds(double seconds, Timing& timing,
              const std::function<void(std::vector<double>&)>& round) {
  CoreRotation cores;
  int rounds = 0;
  double elapsed = 0.0;
  double nextMove = 0.0;
  while (elapsed < seconds) {
    if (elapsed >= nextMove) {
      cores.next();
      nextMove += seconds / static_cast<double>(cores.size());
    }
    const auto start = Clock::now();
    round(timing.opMs);
    elapsed += secondsSince(start);
    timing.roundEnds.push_back(timing.opMs.size());
    ++rounds;
  }
  timing.windowSeconds += elapsed;
  return rounds;
}

void timeSetups(int repeats, Timing& timing,
                const std::function<void()>& setup) {
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    setup();
    timing.setupSeconds.push_back(secondsSince(start));
  }
}

void addOverhead(Outcome& outcome, const std::string& workload,
                 double untracedMs, double tracedMs, std::uint64_t ops) {
  outcome.add(workload + ".trace_overhead_pct",
              untracedMs > 0 ? (tracedMs - untracedMs) / untracedMs * 100.0
                             : 0.0,
              "%", ops);
}

}  // namespace perfbench
