// Shared pieces of the end-to-end benchmark: the result record every
// workload fills, latency statistics, peak-RSS sampling, and the in-memory
// span tracer used by traced runs.
#ifndef URLF_PERFBENCH_BENCH_H
#define URLF_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
[[nodiscard]] inline double msSince(Clock::time_point start) {
  return secondsSince(start) * 1e3;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// How many measurements the value summarizes (per-layer metrics only).
  std::uint64_t base = 0;
};

/// What one run reports: correctness, operation counts and metrics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Record a check. A failed check marks the run incorrect and says why on
  /// stderr.
  void expect(bool condition, const std::string& what);
  void add(std::string name, double value, std::string unit,
           std::uint64_t base = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), base});
  }
};

/// Latencies of the timed operations of one untraced run plus the wall
/// time of the windows they ran in.
struct Timing {
  std::vector<double> opMs;
  /// opMs.size() at the end of each timed round.
  std::vector<std::size_t> roundEnds;
  double windowSeconds = 0.0;  ///< wall time of the timed rounds
  std::vector<double> setupSeconds;
};

/// tail_ms is taken per window of whole rounds holding at least this many
/// operations.
inline constexpr std::size_t kTailWindow = 100;

/// The five end-to-end metrics from one untraced run: set-up time (median
/// of the set-ups), throughput (operations over the rounds' wall time), p50 (over all
/// operations), tail (median over windows of whole rounds holding at least
/// kTailWindow operations of the latency with ten samples beyond it in its
/// window), and peak RSS.
void addEndToEnd(Outcome& outcome, const Timing& timing);

/// One traced interval. Names are string literals (static lifetime).
struct Span {
  std::string_view name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for roots
  std::uint64_t op = 0;      ///< operation id shared by a request's spans
};

/// In-memory span recorder. Spans nest through RAII scopes on one thread;
/// counts are kept beside them under the same names.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  Tracer();
  void beginOp(std::uint64_t op) { op_ = op; }
  [[nodiscard]] Scope span(std::string_view name) { return Scope(*this, name); }
  /// Record an interval measured elsewhere (e.g. across threads).
  void record(std::string_view name, std::int64_t startNs, std::int64_t endNs);
  void count(std::string_view name, double amount) {
    counts_[std::string(name)] += amount;
  }
  [[nodiscard]] std::int64_t nowNs() const;

  struct Layer {
    double totalNs = 0.0;
    double selfNs = 0.0;
    std::uint64_t spans = 0;
  };
  /// Self time per span name: each span's duration minus what its direct
  /// children cover.
  [[nodiscard]] std::map<std::string, Layer> layers() const;
  [[nodiscard]] double counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }
  /// Write every span as one JSON line.
  void write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t op_ = 0;
  std::map<std::string, double> counts_;
};

/// Self time of the spans named `span` in `unit` ("s", "ms", "us", "ns"),
/// averaged per span, or per `per` units of work when `per` > 0 (the base).
void addLayer(Outcome& outcome, const Tracer& tracer, const std::string& span,
              const std::string& metric, std::string_view unit,
              double per = 0.0);

/// Settings of one run, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where traces and scratch files go (inside the checkout).
  std::string traceDir = ".";
};

/// Moves the calling thread to the next core of the process's affinity
/// mask on each next(), so a run samples every core of the machine in
/// turn (on a shared host the cores' speeds differ from moment to moment,
/// and a run left on one core measures that core's neighbours). The
/// destructor restores the original mask.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  void next();
  /// Cores in the rotation (at least 1).
  [[nodiscard]] std::size_t size() const {
    return cpus_.empty() ? 1 : cpus_.size();
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Runs the closed loop: `round` performs whole rounds of operations,
/// appending one latency per operation, until `seconds` of round time have
/// passed, moving to the next core after each equal share of `seconds`.
/// Returns the number of rounds run.
int runRounds(double seconds, Timing& timing,
              const std::function<void(std::vector<double>&)>& round);

/// Time `setup` `repeats` times (the last set-up stays live).
void timeSetups(int repeats, Timing& timing, const std::function<void()>& setup);

/// Workload entry points. `untraced` fills the end-to-end metrics; `traced`
/// adds this workload's per-layer metrics and its tracing overhead.
Outcome campaignUntraced(const RunConfig& config);
void campaignTraced(const RunConfig& config, Outcome& outcome);
Outcome scanUntraced(const RunConfig& config);
void scanTraced(const RunConfig& config, Outcome& outcome);
Outcome monitorUntraced(const RunConfig& config);
void monitorTraced(const RunConfig& config, Outcome& outcome);
Outcome serveUntraced(const RunConfig& config);
void serveTraced(const RunConfig& config, Outcome& outcome);

/// Adds `<workload>.trace_overhead_pct`: how much longer the traced
/// operations took than the same operations untraced.
void addOverhead(Outcome& outcome, const std::string& workload,
                 double untracedMs, double tracedMs, std::uint64_t ops);

}  // namespace perfbench

#endif  // URLF_PERFBENCH_BENCH_H
