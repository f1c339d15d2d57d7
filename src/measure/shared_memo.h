#ifndef URLF_MEASURE_SHARED_MEMO_H
#define URLF_MEASURE_SHARED_MEMO_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "measure/client.h"

namespace urlf::measure {

/// Cross-session verdict store (DESIGN.md §4.6).
///
/// Concurrent sessions that run against *deterministic replicas* of the same
/// world snapshot can share verdicts: if session A already fetched URL u at
/// policy state (boxes, now) from vantage pair (f, l), session B's fetch of
/// the same key is byte-identical by construction and can be answered
/// without touching B's world at all.
///
/// Safety is enforced three ways, mirroring the per-client memo's gating
/// (PR 3) but strengthened for cross-world reuse:
///
///  * **Scope**: every entry carries a caller-chosen 64-bit scope key that
///    folds in everything that selects the world program — snapshot name,
///    campaign config header, and the snapshot's category-DB mutation epoch.
///    Sessions with different configs or epochs can never exchange entries.
///  * **Epoch**: the key includes the live middlebox state epoch (the sum of
///    category-DB mutation counts) and the simulated clock. A world whose
///    databases or clock have moved looks up under a different key, so a
///    stale verdict is structurally unreachable, not just invalidated.
///  * **Side effects**: measure::Client only consults the store when both
///    vantages' paths are Cacheability::kShared — deterministic AND
///    side-effect free (no queue-on-access boxes, no stateful injectors, no
///    armed interference; see simnet::PathStage::cacheability).
///    Skipping a fetch must not skip world mutations the solo run would
///    have performed.
///
/// The store is sharded; each shard is a mutex-guarded hash map. Lookups and
/// inserts take one shard lock; statistics are relaxed atomics.
class SharedVerdictStore {
 public:
  struct Key {
    std::uint64_t scope = 0;   ///< session scope (config + snapshot epoch)
    std::uint64_t boxes = 0;   ///< World::middleboxStateEpoch()
    std::int64_t now = 0;      ///< simulated clock, hours
    std::string_view field;    ///< field vantage name
    std::string_view lab;      ///< lab vantage name
    std::string_view url;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t invalidated = 0;  ///< entries erased by invalidateScope
  };

  SharedVerdictStore() = default;
  SharedVerdictStore(const SharedVerdictStore&) = delete;
  SharedVerdictStore& operator=(const SharedVerdictStore&) = delete;

  [[nodiscard]] std::optional<UrlTestResult> lookup(const Key& key) const;

  /// Insert (first writer wins; identical by determinism, so losing a race
  /// is harmless).
  void insert(const Key& key, const UrlTestResult& result);

  /// Drop every entry recorded under `scope`. Called by the campaign server
  /// when a snapshot's category databases mutate and the scope retires —
  /// new sessions already key under the bumped epoch; this just releases
  /// the dead generation's memory promptly.
  void invalidateScope(std::uint64_t scope);

  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct Entry {
    std::uint64_t scope = 0;
    UrlTestResult result;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> map;
  };

  /// Exact composite key text — no hash-collision ambiguity between
  /// vantages, epochs, or scopes.
  [[nodiscard]] static std::string keyText(const Key& key);
  [[nodiscard]] Shard& shardFor(const std::string& text);
  [[nodiscard]] const Shard& shardFor(const std::string& text) const;

  Shard shards_[kShards];
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> invalidated_{0};
};

}  // namespace urlf::measure

#endif  // URLF_MEASURE_SHARED_MEMO_H
