#ifndef URLF_SCENARIOS_MONITOR_H
#define URLF_SCENARIOS_MONITOR_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/identifier.h"
#include "core/monitor.h"
#include "measure/client.h"
#include "measure/health.h"
#include "measure/journal.h"
#include "report/json.h"
#include "scan/delta_index.h"
#include "scenarios/paper_world.h"
#include "simnet/churn_stream.h"
#include "util/expected.h"

namespace urlf::scenarios {

/// How each tick's scan → identify → test pipeline is executed. The mode is
/// a performance knob only: both modes produce byte-identical tick digests
/// (the property the monitor tests and bench enforce).
enum class MonitorMode {
  kFull,         ///< reference: rebuild the index, revalidate, retest all
  kIncremental,  ///< delta-driven: dirty cells, cached validation, reused
                 ///< verdicts
};

[[nodiscard]] std::string_view toString(MonitorMode mode);

/// World churn between ticks, all deterministic in the monitor seed.
struct MonitorChurn {
  /// Per-host per-tick content redraw probability (streamed hosts).
  double rebrandRate = 0.02;
  /// Per-host per-tick parking-page probability (streamed hosts).
  double parkRate = 0.005;
  /// Vendor master-DB mutations applied per tick (addHost / addUrl /
  /// removeHost drawn from the global list).
  int dbMutationsPerTick = 3;
};

/// Everything that determines a monitoring campaign's observable output,
/// plus the performance knobs that provably do not (mode / threads — the
/// incremental ≡ full digest equivalence).
struct MonitorOptions {
  std::uint64_t seed = kPaperSeed;
  PaperWorldOptions world;

  /// Streamed background population (0 = none attached). The stream rides
  /// under the churn overlay, so host content evolves tick to tick while
  /// addresses and shard layout stay fixed.
  std::uint64_t streamHosts = 0;
  std::uint64_t hostsPerShard = 8192;
  int streamCountries = 8;
  double baitFraction = 0.01;

  /// Number of churn ticks to run after the tick-0 baseline. Not part of
  /// the checkpoint header: a resumed campaign may be continued for any
  /// number of further ticks.
  int ticks = 6;
  /// Simulated hours between ticks (default: a monthly re-scan cadence).
  std::int64_t tickHours = 720;

  MonitorChurn churn;

  /// Fire the three scripted deployment events — an installation hidden
  /// behind a firewall, a brand-new deployment in a fresh AS, a vendor
  /// branding strip — at fixed ticks 2, 4, and 6 (whichever the run
  /// reaches). Fixed so a resumed run fires them at the same ticks no
  /// matter how many further ticks it is continued for.
  bool scriptedEvents = true;

  /// Per-vantage circuit breakers (off by default).
  bool healthEnabled = false;
  measure::BreakerPolicy breaker;

  // Performance knobs. NOT part of the checkpoint header: any combination
  // reproduces the same digests, so a campaign checkpointed in one mode may
  // be resumed in another.
  MonitorMode mode = MonitorMode::kIncremental;
  std::size_t threads = 0;

  /// The checkpoint header: every field that affects observable output.
  [[nodiscard]] report::Json headerJson() const;
  /// Rebuild options from a checkpoint header (fails on unknown version or
  /// malformed fields). Performance knobs and `ticks` keep their defaults.
  [[nodiscard]] static util::Expected<MonitorOptions> fromHeaderJson(
      const report::Json& header);
};

/// One URL's verdict at one vantage in one tick — the unit the monitor
/// digests, caches across ticks, and checkpoints.
struct VerdictRow {
  std::string vantage;
  std::string url;
  measure::Verdict verdict = measure::Verdict::kError;
  measure::Provenance provenance = measure::Provenance::kConfirmed;
  std::string blockProduct = "-";  ///< "-" when no vendor pattern matched
  std::string patternName = "-";
  int fieldOutcome = 0;  ///< simnet::FetchOutcome of the field fetch
  int fieldStatus = 0;   ///< HTTP status of the field response (0 = none)
};

/// The differential report of one tick: what changed since the previous
/// identification + test pass, plus the digest and perf counters.
struct TickReport {
  int tick = 0;
  std::int64_t atHours = 0;  ///< simulated clock at the end of the tick

  // Differential view (built on core::diffAll + verdict comparison).
  int newlyConfirmed = 0;   ///< installations appeared vs previous tick
  int decommissioned = 0;   ///< installations vanished
  int relocated = 0;        ///< installations that changed country
  int verdictFlips = 0;     ///< URLs whose verdict changed ("category drift")
  std::vector<std::string> notes;  ///< human-readable change lines

  /// fnv1a64 over the canonical installation + verdict listing of this
  /// tick. Byte-identical between kFull and kIncremental at any thread
  /// count — the monitor's correctness contract.
  std::uint64_t digest = 0;

  // Perf counters (incremental mode; zero under kFull where not shared).
  std::size_t cellsRebuilt = 0;
  std::size_t cellCount = 0;
  std::size_t docsReindexed = 0;     ///< index documents re-tokenized
  std::size_t validationHits = 0;    ///< candidate validations reused
  std::size_t validationMisses = 0;  ///< candidate validations executed
  std::size_t urlsTested = 0;        ///< URLs fetched this tick
  std::size_t urlsReused = 0;        ///< verdicts reused from the cache
  double scanMs = 0.0;
  double identifyMs = 0.0;
  double testMs = 0.0;

  [[nodiscard]] std::string digestHex() const;
  [[nodiscard]] report::Json toJson() const;
};

/// A full monitoring run: one report per executed tick plus the digest
/// chain folding every tick digest in order.
struct MonitorReport {
  std::vector<TickReport> ticks;
  std::uint64_t chainDigest = 0;

  [[nodiscard]] std::string chainDigestHex() const;
};

/// A resident longitudinal monitoring campaign (DESIGN.md §4.7): owns the
/// world, the churn feed, and every cross-tick cache, and advances one tick
/// at a time through scan → identify → re-test.
///
/// Tick 0 is the baseline (no churn; everything scanned, validated, and
/// tested). Each later tick advances the clock, applies the deterministic
/// churn (stream content redraws, vendor DB mutations, scripted deployment
/// events), then re-runs the pipeline — under kIncremental touching only
/// what the change feed proves dirty:
///   * re-scan: IncrementalCrawler re-indexes only the churned documents
///     (dirty hosts, bound surfaces whose banner moved),
///   * re-identify: Identifier::ValidationCache reuses validations whose
///     surface epoch (the churn feed's lastContentChange) is unchanged,
///   * re-test: verdicts are reused for URLs no DB mutation window touched,
///     unless a scripted event / epoch tripwire / non-cacheable chain /
///     open breaker forces the vantage to retest everything.
///
/// A checkpoint (writeCheckpoint) folds the whole history into O(state):
/// one urlfj1 container holding the config header and a single
/// monitor-state record (installations + verdict rows + breaker state +
/// digest chain). resume() rebuilds the world by re-evolving it tick by
/// tick (no scanning or testing — O(ticks) clock/DB work, not O(ticks)
/// pipeline work), restores the caches from the snapshot, and continues.
class MonitorSession {
 public:
  /// Build a fresh session at tick -1 (no tick has run). The first
  /// runTick() executes the tick-0 baseline.
  [[nodiscard]] static std::unique_ptr<MonitorSession> create(
      const MonitorOptions& options);

  /// Resume from a checkpoint file. Fails with a one-line reason when the
  /// file is missing, its header is corrupt, its state record was lost to
  /// truncation or bit rot, or the snapshot does not match the world the
  /// header rebuilds. `mode` and `threads` are the resumed run's
  /// performance knobs (checkpoints are mode-agnostic).
  [[nodiscard]] static util::Expected<std::unique_ptr<MonitorSession>> resume(
      const std::string& checkpointPath,
      MonitorMode mode = MonitorMode::kIncremental, std::size_t threads = 0);

  /// resume() on an already-opened journal (tests use
  /// CampaignJournal::fromText to exercise corruption without files).
  [[nodiscard]] static util::Expected<std::unique_ptr<MonitorSession>>
  resumeFromJournal(measure::CampaignJournal journal, MonitorMode mode,
                    std::size_t threads);

  /// Execute the next tick and return its report.
  TickReport runTick();

  /// Snapshot the campaign into `path` (truncates; the checkpoint is a
  /// compaction, not a log — its size is O(state) regardless of how many
  /// ticks have run).
  void writeCheckpoint(const std::string& path) const;

  /// Last completed tick (-1 before the baseline has run).
  [[nodiscard]] int tick() const { return tick_; }
  /// Digest chain over every completed tick.
  [[nodiscard]] std::uint64_t chainDigest() const { return chain_; }
  [[nodiscard]] const MonitorOptions& options() const { return options_; }
  /// The stream churn feed; null when the world has no streamed hosts.
  [[nodiscard]] const simnet::ChurnHostStream* churnFeed() const {
    return churn_.get();
  }

  MonitorSession(const MonitorSession&) = delete;
  MonitorSession& operator=(const MonitorSession&) = delete;

 private:
  MonitorSession() = default;

  struct PlanUrl {
    std::string url;
    std::string host;       ///< lowercased
    std::string regDomain;  ///< lowercased registrable domain
  };
  struct VantagePlan {
    std::string name;
    std::vector<std::size_t> urlIndices;  ///< into urls_, test order
  };
  /// One applied DB mutation and the window in which it can still flip a
  /// verdict somewhere (update lag).
  struct Mutation {
    std::string urlText;  ///< exact-URL mutations; empty for host ones
    std::string host;     ///< host mutations; empty for exact-URL ones
    std::int64_t addedAtHours = 0;
    std::int64_t lagHours = 0;
  };

  void buildWorld();
  void buildTestPlan();
  /// Returns true when a scripted event fired at this tick.
  bool applyScriptedEvent(int tick);
  void applyDbChurn(int tick);
  void refreshMaxLag();
  [[nodiscard]] bool urlDirty(const PlanUrl& url, std::int64_t prevNowHours,
                              std::int64_t nowHours) const;
  [[nodiscard]] static std::uint64_t rowKey(std::size_t vantage,
                                            std::size_t url) {
    return (static_cast<std::uint64_t>(vantage) << 32) | url;
  }

  MonitorOptions options_;
  std::unique_ptr<PaperWorld> paper_;
  std::shared_ptr<simnet::ChurnHostStream> churn_;  ///< null when no stream
  geo::GeoDatabase geo_;      ///< rebuilt per tick; stable address
  geo::AsnDatabase whois_;
  std::unique_ptr<scan::IncrementalCrawler> crawler_;  ///< kIncremental
  scan::ShardedBannerIndex index_;  ///< last assembled index
  core::Identifier::ValidationCache validationCache_;
  measure::HealthRegistry health_;

  std::vector<PlanUrl> urls_;
  std::unordered_map<std::string, std::size_t> urlIndex_;
  std::vector<VantagePlan> vantages_;
  std::string labVantage_;

  std::vector<Mutation> mutations_;
  std::int64_t maxLagHours_ = 0;
  std::uint64_t expectedEpoch_ = 0;
  /// Validation epoch for eager (bound) surfaces: bumps when a scripted
  /// event or epoch tripwire may have changed deployment-served content.
  /// Not checkpointed — a resumed session starts with an empty validation
  /// cache, so any starting value is sound.
  std::uint64_t eagerGen_ = 0;
  /// geo_/whois_ are built lazily on the first tick and rebuilt only when
  /// the AS layout can have moved (scripted event / epoch tripwire).
  bool geoBuilt_ = false;

  int tick_ = -1;
  std::map<filters::ProductKind, std::vector<core::Installation>> installs_;
  std::vector<VerdictRow> rows_;  ///< vantage-major, plan order
  std::unordered_map<std::uint64_t, VerdictRow> verdictCache_;
  std::uint64_t chain_ = 0;
};

/// Run a complete monitoring campaign: the tick-0 baseline plus
/// `options.ticks` churn ticks. When `checkpointPath` is non-empty the
/// session checkpoints after every tick (each write replaces the previous
/// snapshot — crash-and-resume loses at most the tick in flight).
[[nodiscard]] MonitorReport runMonitor(const MonitorOptions& options,
                                       const std::string& checkpointPath = "");

}  // namespace urlf::scenarios

#endif  // URLF_SCENARIOS_MONITOR_H
