#ifndef URLF_SCAN_DELTA_INDEX_H
#define URLF_SCAN_DELTA_INDEX_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scan/banner_index.h"

namespace urlf::scan {

/// Options for IncrementalCrawler (mirrors StreamCrawlOptions).
struct IncrementalCrawlOptions {
  std::size_t bodySnippetLimit = 2048;
  std::size_t threadLimit = 0;         ///< 1 forces the serial path
  std::uint64_t hostsPerShard = 8192;  ///< stream cell granularity
};

/// Delta-driven re-crawl: keeps one posting cell per crawlStream shard
/// (the eager-bindings cell plus one cell per stream shard) and rebuilds
/// only the cells a change feed marks dirty, then reassembles a
/// ShardedBannerIndex from the cell parts.
///
/// Equivalence contract (enforced by tests/monitor_incremental_property_test
/// and the monitor bench): after refresh(dirty) the assembled index is
/// semantically identical to a fresh crawlStream of the same world — same
/// doc-id layout (cells replicate crawlStream's shard order exactly), same
/// postings per cell, same country buckets, same fetched records. That
/// holds because
///   * the cell layout is pinned by a structural signature (the eager
///     surface list and the stream shard table); any layout change — a new
///     binding, an unbind, an attached/detached stream — forces a full
///     rebuild that tick, so doc ids baked into clean cells can never be
///     stale, and
///   * a clean cell's hosts are content-pure between rebuilds (the
///     WorldStream contract plus the churn feed's exactness), so re-probing
///     them would reproduce byte-identical records.
///
/// Dirty cells rebuild in parallel (cells are independent; output is
/// byte-identical at any thread count). Quiet ticks rebuild only the eager
/// cell — bound surfaces answer live policy state, which the feed cannot
/// see — so per-tick cost is O(bound surfaces + dirty hosts), not O(world).
class IncrementalCrawler {
 public:
  /// The change feed: true when the stream host's content may have changed
  /// since the previous refresh.
  using DirtyHostFn = std::function<bool(std::uint64_t)>;

  /// `world` and `geo` are captured by reference and must outlive the
  /// crawler and every index it assembles.
  IncrementalCrawler(simnet::World& world, const geo::GeoDatabase& geo,
                     IncrementalCrawlOptions options = {});

  /// Bring the cells up to date with the world: rebuild the eager cell,
  /// every cell containing a dirty host, and — on a structural change —
  /// everything. First call always builds everything.
  void refresh(const DirtyHostFn& dirtyHost);

  /// Assemble the current cells into a queryable index. Its fetcher
  /// re-probes on demand: eager docs through their bound endpoints, streamed
  /// docs by re-materializing the host.
  [[nodiscard]] ShardedBannerIndex assemble() const;

  /// Diagnostics for the last refresh.
  [[nodiscard]] std::size_t cellsRebuilt() const { return cellsRebuilt_; }
  [[nodiscard]] std::size_t cellCount() const { return cells_.size(); }
  [[nodiscard]] bool lastRefreshStructural() const { return structural_; }

 private:
  struct Cell {
    std::string label;
    /// Stream host-id range [begin, end); 0/0 for the eager cell.
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint32_t docBase = 0;
    PostingShard shard;
    std::vector<std::uint32_t> ips;
    std::vector<std::uint16_t> ports;
    /// UPPERCASED alpha2 -> global doc ids (ascending within the cell).
    std::map<std::string, std::vector<std::uint32_t>> countryDocs;
  };

  [[nodiscard]] std::uint64_t layoutSignature() const;
  void rebuildLayout();
  void rebuildEagerCell(Cell& cell) const;
  void rebuildStreamCell(Cell& cell) const;

  simnet::World* world_;
  const geo::GeoDatabase* geo_;
  IncrementalCrawlOptions options_;
  std::vector<Cell> cells_;
  std::uint64_t signature_ = 0;
  bool built_ = false;
  std::size_t cellsRebuilt_ = 0;
  bool structural_ = false;
};

}  // namespace urlf::scan

#endif  // URLF_SCAN_DELTA_INDEX_H
