#ifndef URLF_MEASURE_CLIENT_H
#define URLF_MEASURE_CLIENT_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "measure/blockpage.h"
#include "measure/health.h"
#include "simnet/transport.h"
#include "simnet/world.h"

namespace urlf::measure {

class SharedVerdictStore;

/// Verdict for one URL after comparing the field and lab accesses (§4.1).
enum class Verdict {
  kAccessible,    ///< field matches the lab's view of the page
  kBlocked,       ///< field got a recognized vendor block page
  kBlockedOther,  ///< field clearly censored (non-2xx / RST / timeout while
                  ///< lab is fine) but no vendor pattern matched
  kInconclusive,  ///< field differs from lab in a way we cannot attribute
  kError,         ///< the lab access itself failed — the site is just down
  kContested,     ///< cross-vantage quorum disagreed, or the blockpage
                  ///< vendor contradicts the scan/fingerprint identification
                  ///< — blocked-ish evidence that must not be attributed
                  ///< (appended last: campaign digests cast verdicts to int)
};

[[nodiscard]] std::string_view toString(Verdict verdict);

/// How much a recorded row is worth as evidence. kConfirmed rows come from a
/// real field+lab exchange; kDegraded rows were never fetched — the vantage
/// was quarantined by its circuit breaker — so they mean "untestable", not
/// "accessible" or "blocked".
enum class Provenance {
  kConfirmed,
  kDegraded,
};

[[nodiscard]] std::string_view toString(Provenance provenance);

/// Everything recorded about one URL in one run.
struct UrlTestResult {
  std::string url;
  simnet::FetchResult field;
  simnet::FetchResult lab;
  Verdict verdict = Verdict::kError;
  std::optional<BlockPageMatch> blockPage;
  Provenance provenance = Provenance::kConfirmed;

  [[nodiscard]] bool blocked() const {
    return verdict == Verdict::kBlocked || verdict == Verdict::kBlockedOther;
  }
};

/// The ONI-style measurement client (§4.1): accesses a URL list from a field
/// vantage point and triggers the same list from the uncensored lab, then
/// compares the two to decide per-URL accessibility.
///
/// `fetchOptions` (redirect limits + RetryPolicy) apply to both the field
/// and the lab fetch, so transient substrate faults are ridden out on both
/// sides before the verdict is derived.
///
/// Two campaign-scale fast paths are layered on the same semantics:
///
/// - **Batched classification** (testListBatched): fetches stay strictly in
///   list order — fetching mutates the world (RNG draws, retry-backoff clock
///   advances, vendor queues) and must replay the exact serial program order
///   (DESIGN.md §4.1) — while the pure classify/compare stage fans out over
///   util::parallelFor with slot-per-index writes. Output is byte-identical
///   to testList at any thread count.
///
/// - **Verdict memoization** (enableVerdictMemo): repeat fetches of the same
///   URL at an unchanged (middlebox state epoch, clock) are answered from a
///   per-client memo. The memo only ever activates when both vantages'
///   paths are at least locally cacheable (Transport::cacheability) — a box
///   that rolls dice per exchange (offlineProbability, license models) must
///   consume its RNG draws on every repeat, and armed interference may be
///   deceiving the vantage, so neither is ever memoized. Entries are
///   dropped the moment the epoch moves (any category database mutation or
///   clock advance), and a fetch that itself moves the
///   epoch (retry backoff, queue-triggered recategorization) is not
///   memoized. Policy-knob edits that bypass the epoch (e.g. assigning a new
///   FilterPolicy wholesale) require clearVerdictMemo() or a fresh Client.
class Client {
 public:
  Client(simnet::World& world, const simnet::VantagePoint& field,
         const simnet::VantagePoint& lab,
         simnet::FetchOptions fetchOptions = {});

  [[nodiscard]] UrlTestResult testUrl(const std::string& url);

  [[nodiscard]] std::vector<UrlTestResult> testList(
      std::span<const std::string> urls);

  /// testList with the classification stage parallelized (threadLimit as in
  /// util::parallelFor: 1 = serial reference, 0 = shared pool).
  [[nodiscard]] std::vector<UrlTestResult> testListBatched(
      std::span<const std::string> urls, std::size_t threadLimit = 0);

  /// Opt into verdict memoization. Takes effect only when both vantages'
  /// paths are at least locally cacheable (checked here and remembered).
  void enableVerdictMemo(bool enabled);
  [[nodiscard]] bool verdictMemoActive() const {
    return memoEnabled_ && memoSafe_;
  }
  void clearVerdictMemo();
  [[nodiscard]] std::uint64_t verdictMemoHits() const { return memoHits_; }

  /// Attach a cross-session verdict store under `scope` (nullptr detaches).
  /// On top of the per-client memo's gating, the store is consulted only
  /// when both vantages' paths are shared-cacheable — deterministic AND side-
  /// effect free (no vendor queue writes, no hold-down arms): a shared hit
  /// skips this world's fetch entirely, which is sound only if the skipped
  /// fetch would have mutated nothing. Shared lookups/inserts additionally
  /// require the per-client memo to be active (enableVerdictMemo), and key
  /// on (scope, middlebox state epoch, clock, vantage pair, url) so entries
  /// can never replay across policy epochs or vantages.
  void attachSharedMemo(SharedVerdictStore* store, std::uint64_t scope);
  [[nodiscard]] bool sharedMemoActive() const {
    return shared_ != nullptr && sharedSafe_ && verdictMemoActive();
  }
  [[nodiscard]] std::uint64_t sharedMemoHits() const { return sharedHits_; }

  /// Attach a campaign-scoped health registry (nullptr = health tracking
  /// off, the historical behavior). With a registry attached, every test is
  /// gated on the *field* vantage's circuit breaker BEFORE the verdict memo
  /// is consulted: a quarantined vantage yields a kDegraded result without
  /// touching the network or the memo, and a half-open probe bypasses the
  /// memo so the breaker sees a live exchange. Only real fetches feed the
  /// breaker — memo hits carry no health signal. The lab vantage is not
  /// gated or tracked: a lab-side failure means the site is down, not that
  /// the infrastructure is sick.
  void setHealthRegistry(HealthRegistry* registry) { health_ = registry; }
  [[nodiscard]] HealthRegistry* healthRegistry() const { return health_; }

  /// Classification mode: compiled pattern library (default) or per-call
  /// reference regex construction (equivalence baseline).
  void setClassifyMode(ClassifyMode mode) { classifyMode_ = mode; }
  [[nodiscard]] ClassifyMode classifyMode() const { return classifyMode_; }

  [[nodiscard]] const simnet::VantagePoint& field() const { return *field_; }
  [[nodiscard]] const simnet::VantagePoint& lab() const { return *lab_; }
  [[nodiscard]] const simnet::FetchOptions& fetchOptions() const {
    return fetchOptions_;
  }

  /// How far this client's verdicts may be reused: the least cacheable
  /// stage on either vantage's path decides.
  [[nodiscard]] simnet::Cacheability cacheability() const;

  /// True when a verdict recorded by this client can be replayed later
  /// without re-fetching, as long as no category DB, policy, or clock-lag
  /// boundary moved in between: both paths are shared-cacheable. This is
  /// the same gate the shared verdict store applies; the longitudinal
  /// monitor consults it before reusing cached verdicts across ticks.
  [[nodiscard]] bool cacheableChains() const {
    return cacheability() == simnet::Cacheability::kShared;
  }

  /// The pure comparison rule (§4.1): derive the verdict from the two
  /// fetches and the block-page classification. Public so recorded sessions
  /// can be re-classified offline with a different pattern library.
  [[nodiscard]] static Verdict compare(
      const simnet::FetchResult& field, const simnet::FetchResult& lab,
      const std::optional<BlockPageMatch>& blockPage);

 private:
  /// Everything that must be unchanged for a memoized verdict to replay
  /// exactly: category-database state across all middleboxes + the clock
  /// (the policy epoch and the fetch time).
  struct MemoEpoch {
    std::uint64_t boxes = 0;
    std::int64_t now = 0;
    bool operator==(const MemoEpoch&) const = default;
  };
  [[nodiscard]] MemoEpoch currentEpoch() const;
  /// Shared-store lookup for `url` at `epoch`; populates the local memo on
  /// a hit. Only call when sharedMemoActive().
  [[nodiscard]] std::optional<UrlTestResult> sharedLookup(
      const std::string& url, const MemoEpoch& epoch);
  void sharedInsert(const UrlTestResult& result, const MemoEpoch& epoch);

  /// Fetch `url` from the field, then from the lab, into `out`: the URL is
  /// parsed and its request built once for both sides (a malformed URL
  /// gives both Transport::badUrl). Feeds the field outcome to the health
  /// registry when one is attached.
  void fetchBoth(const std::string& url, UrlTestResult& out);
  /// fetchBoth, then classify — the memo-oblivious core of testUrl.
  [[nodiscard]] UrlTestResult fetchAndClassify(const std::string& url);
  [[nodiscard]] std::optional<BlockPageMatch> classify(
      const simnet::FetchResult& field) const;
  /// The synthetic row recorded for a URL skipped under quarantine.
  [[nodiscard]] UrlTestResult degradedResult(const std::string& url) const;

  simnet::World* world_;
  simnet::Transport transport_;
  const simnet::VantagePoint* field_;
  const simnet::VantagePoint* lab_;
  simnet::FetchOptions fetchOptions_;

  ClassifyMode classifyMode_ = ClassifyMode::kCompiled;
  bool memoEnabled_ = false;
  bool memoSafe_ = false;
  MemoEpoch memoEpoch_{};
  std::uint64_t memoHits_ = 0;
  std::unordered_map<std::string, UrlTestResult> memo_;
  HealthRegistry* health_ = nullptr;

  SharedVerdictStore* shared_ = nullptr;
  std::uint64_t sharedScope_ = 0;
  bool sharedSafe_ = false;
  std::uint64_t sharedHits_ = 0;
};

}  // namespace urlf::measure

#endif  // URLF_MEASURE_CLIENT_H
