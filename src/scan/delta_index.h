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
/// (the eager-bindings cell plus one cell per stream shard) and re-indexes
/// only the documents that changed, then reassembles a ShardedBannerIndex
/// from the cell parts.
///
/// Equivalence contract (enforced by tests/world_stream_property_test,
/// tests/monitor_incremental_property_test and the monitor bench): after
/// refresh(dirty) the assembled index is byte-identical to a fresh
/// crawlStream of the same world — same doc-id layout (cells replicate
/// crawlStream's shard order exactly), same postings per cell, same country
/// buckets, same resident eager records, same fetched records. That holds
/// because
///   * the cell layout is pinned by a structural signature (the eager
///     surface list and the stream shard table); any layout change — a new
///     binding, an unbind, an attached/detached stream — rebuilds every cell
///     that tick, so doc ids baked into cells can never be stale;
///   * a stream host's content changes only when the change feed marks it
///     dirty (the WorldStream contract plus the feed's exactness), and its
///     address never changes, so re-probing the dirty hosts and patching
///     their documents into the cell (PostingShard::replaceDocuments, which
///     gives the bytes a fresh build gives) reproduces the fresh cell;
///   * the eager cell's records and lowered text stay resident, as
///     crawlStream keeps them. Bound surfaces answer live policy state the
///     feed cannot see, so every refresh re-probes them, patches only the
///     documents whose lowered searchable text or country changed, and
///     replaces the resident records with the fresh probe.
///
/// A quiet refresh therefore costs the bound surfaces' probe plus work in
/// proportion to the churned documents, not to the world. Probes fan out
/// on the shared pool; output is byte-identical at any thread count.
class IncrementalCrawler {
 public:
  /// The change feed: true when the stream host's content may have changed
  /// since the previous refresh.
  using DirtyHostFn = std::function<bool(std::uint64_t)>;

  /// `world` and `geo` are captured by reference and must outlive the
  /// crawler and every index it assembles.
  IncrementalCrawler(simnet::World& world, const geo::GeoDatabase& geo,
                     IncrementalCrawlOptions options = {});

  /// Bring the cells up to date with the world: re-probe the bound surfaces
  /// and every dirty host and patch the documents that changed — or, on a
  /// structural change, rebuild everything. First call always builds
  /// everything.
  void refresh(const DirtyHostFn& dirtyHost);

  /// Assemble the current cells into a queryable index. Eager docs are
  /// resident (the last refresh's probe); its fetcher serves streamed docs
  /// by re-materializing the host, as crawlStream's does.
  [[nodiscard]] ShardedBannerIndex assemble() const;

  /// Diagnostics for the last refresh: cells brought up to date (the eager
  /// cell, re-probed every refresh, plus each cell holding a dirty host;
  /// every cell on a structural refresh) and documents re-tokenized.
  [[nodiscard]] std::size_t cellsRebuilt() const { return cellsRebuilt_; }
  [[nodiscard]] std::size_t docsReindexed() const { return docsReindexed_; }
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
  /// Index every document of `cell` from its probed records (doc order)
  /// and their lowered searchable text.
  static void buildCell(Cell& cell, const std::vector<BannerRecord>& records,
                        const std::vector<std::string>& lowered);
  /// Re-index the documents `docs` (ascending, inside `cell`) from their
  /// new lowered text and crawler-side country.
  static void patchCell(Cell& cell, const std::vector<std::uint32_t>& docs,
                        const std::vector<std::string>& lowered,
                        const std::vector<std::string>& countries);
  void refreshEagerCell();
  void refreshStreamCells(const DirtyHostFn& dirtyHost);

  simnet::World* world_;
  const geo::GeoDatabase* geo_;
  IncrementalCrawlOptions options_;
  std::vector<Cell> cells_;
  /// The eager cell's records and their lowered text, from the last probe.
  std::vector<BannerRecord> eagerRecords_;
  std::vector<std::string> eagerLowered_;
  util::SimTime refreshedAt_;
  std::uint64_t signature_ = 0;
  bool built_ = false;
  std::size_t cellsRebuilt_ = 0;
  std::size_t docsReindexed_ = 0;
  bool structural_ = false;
};

}  // namespace urlf::scan

#endif  // URLF_SCAN_DELTA_INDEX_H
