#ifndef URLF_SCAN_BANNER_INDEX_H
#define URLF_SCAN_BANNER_INDEX_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "geo/geodb.h"
#include "http/header_map.h"
#include "net/ipv4.h"
#include "scan/postings.h"
#include "simnet/world.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace urlf::scan {

/// One indexed banner: what a Shodan-style crawler recorded when it probed
/// an (ip, port) — status line, headers, a body snippet, and location
/// metadata from the crawler's geolocation database.
struct BannerRecord {
  net::Ipv4Addr ip;
  std::uint16_t port = 80;
  int statusCode = 0;
  http::HeaderMap headers;
  std::string body;           ///< truncated body snippet
  std::string title;          ///< extracted HTML title
  std::string countryAlpha2;  ///< crawler-side geolocation (may be wrong)
  util::SimTime observedAt;

  /// The searchable text: status line + raw headers + title + body.
  [[nodiscard]] std::string searchableText() const;

  /// Append the searchable text to `out` without clearing it.
  void appendSearchableText(std::string& out) const;
};

/// A Shodan-style query: a keyword plus an optional country facet. The
/// paper's method searches each product keyword combined with every
/// two-letter ccTLD / country to maximize coverage (§3.1).
struct Query {
  std::string keyword;
  std::optional<std::string> countryAlpha2;
};

/// The banner search engine (the Shodan stand-in [27]): country/prefix
/// shards of compressed posting lists over an interned vocabulary
/// (scan::PostingShard), plus per-document (ip, port) tables and
/// delta-coded country buckets. `search` does case-insensitive keyword
/// matching over the banner text.
///
/// Documents are identified by dense uint32 doc ids in insertion order. A
/// keyword that is a single alphanumeric token resolves through the posting
/// lists (the vocabulary is scanned for tokens containing it, so matches
/// inside longer tokens are kept); a keyword with separators ("cfru=",
/// "8080/webadmin/") uses its longest token as a pre-filter and is verified
/// against the banner text; a keyword with no token at all scans every
/// banner.
///
/// Where that banner text comes from depends on the document:
///  - resident docs (fromRecords, and the eagerly bound surfaces of
///    crawlStream) keep their record and its lowered text, computed once
///    at build time, and are read in place;
///  - streamed docs are not stored; they are re-materialized through the
///    attached RecordFetcher — for a streamed crawl a deterministic re-probe
///    of the pure host function, so fetched records are byte-identical to
///    what the crawl saw.
///
/// Shards are built one at a time so peak build memory is O(shard), and
/// cross-shard results merge by concatenation because shard doc ranges are
/// ascending and disjoint (the degenerate k-way merge; the token-level
/// k-way merge drives vocabularySize() and other cross-shard vocabulary
/// consumers). The property suites check every query against the linear
/// scan in the test-only oracles library.
class ShardedBannerIndex {
 public:
  /// Re-materialize one non-resident document's full banner record.
  using RecordFetcher = std::function<BannerRecord(std::uint32_t)>;

  ShardedBannerIndex() = default;
  ShardedBannerIndex(ShardedBannerIndex&&) = default;
  ShardedBannerIndex& operator=(ShardedBannerIndex&&) = default;
  ShardedBannerIndex(const ShardedBannerIndex&) = delete;
  ShardedBannerIndex& operator=(const ShardedBannerIndex&) = delete;

  // --- streaming build ----------------------------------------------------

  /// Open a new shard; records added until endShard() belong to it. Doc ids
  /// keep ascending across shards.
  void beginShard(std::string label);
  /// Index one record into the open shard (tokens, country bucket, surface
  /// tables). The record itself is not retained.
  void addRecord(const BannerRecord& record);
  /// addRecord, keeping the record and its lowered text resident. Resident
  /// docs must come first: throws std::logic_error after a non-resident one.
  void addResidentRecord(BannerRecord record);
  /// Seal the open shard (empty shards are kept — they serialize and query
  /// as no-ops).
  void endShard();

  /// Build from owned records, all resident, chunked at `shardTargetDocs`.
  [[nodiscard]] static ShardedBannerIndex fromRecords(
      std::vector<BannerRecord> records, std::size_t shardTargetDocs = 8192);

  /// Reassemble from serialized parts (see scan/serialize.h). Throws
  /// std::invalid_argument when the parts are inconsistent.
  [[nodiscard]] static ShardedBannerIndex fromParts(
      std::vector<std::uint32_t> ips, std::vector<std::uint16_t> ports,
      std::map<std::string, DeltaIdList> countryBuckets,
      std::vector<PostingShard> shards);

  void setRecordFetcher(RecordFetcher fetcher) { fetcher_ = std::move(fetcher); }
  [[nodiscard]] bool hasRecordFetcher() const { return fetcher_ != nullptr; }
  /// One document's record: a copy of the resident record, else the
  /// fetcher's. Throws std::logic_error for a non-resident doc without a
  /// fetcher.
  [[nodiscard]] BannerRecord fetchRecord(std::uint32_t doc) const;

  /// Make docs [0, records.size()) resident: `records[i]` is doc i's record
  /// and `lowered[i]` its lowered searchable text, exactly as
  /// addResidentRecord would keep them (an incremental crawl hands over the
  /// records it already holds). Throws std::invalid_argument when the sizes
  /// differ or exceed docCount().
  void setResidentRecords(std::vector<BannerRecord> records,
                          std::vector<std::string> lowered);

  /// The resident records, doc ids [0, size()).
  [[nodiscard]] const std::vector<BannerRecord>& residentRecords() const {
    return residentRecords_;
  }
  /// The resident record of `doc`, or nullptr when `doc` is not resident.
  [[nodiscard]] const BannerRecord* residentRecord(std::uint32_t doc) const {
    return doc < residentRecords_.size() ? &residentRecords_[doc] : nullptr;
  }

  // --- queries ------------------------------------------------------------

  struct DocSurface {
    net::Ipv4Addr ip;
    std::uint16_t port = 80;
  };
  [[nodiscard]] DocSurface surface(std::uint32_t doc) const {
    return {net::Ipv4Addr{ips_[doc]}, ports_[doc]};
  }

  /// Doc ids matching the query, ascending.
  [[nodiscard]] std::vector<std::uint32_t> search(const Query& query) const;

  /// Union across queries, de-duplicated by (ip, port), ordered by first
  /// match (query order, then doc order). Distinct keywords resolve once,
  /// in parallel; each keyword's candidates are split by country once, so
  /// the §3.1 keyword × country fan-out costs one walk per keyword. The
  /// merge is sequential in query order, so results are identical at any
  /// thread count.
  [[nodiscard]] std::vector<std::uint32_t> searchAll(
      const std::vector<Query>& queries) const;

  [[nodiscard]] std::uint32_t docCount() const {
    return static_cast<std::uint32_t>(ips_.size());
  }
  [[nodiscard]] std::size_t shardCount() const { return shards_.size(); }
  [[nodiscard]] const std::vector<PostingShard>& shards() const {
    return shards_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& ips() const { return ips_; }
  [[nodiscard]] const std::vector<std::uint16_t>& ports() const {
    return ports_;
  }
  [[nodiscard]] const std::map<std::string, DeltaIdList>& countryBuckets()
      const {
    return countryBuckets_;
  }

  /// Distinct tokens across all shards (k-way merged, so shared vocabulary
  /// is counted once).
  [[nodiscard]] std::size_t vocabularySize() const;

  /// Approximate resident footprint of the index structures, in bytes (the
  /// resident records are not counted).
  [[nodiscard]] std::size_t memoryBytes() const;

 private:
  [[nodiscard]] std::vector<std::uint32_t> keywordCandidates(
      const std::string& loweredKeyword) const;
  /// Whether doc's lowered banner text contains `loweredKeyword`: resident
  /// docs are read in place, the rest are fetched and lowered in `scratch`.
  [[nodiscard]] bool docContains(std::uint32_t doc,
                                 std::string_view loweredKeyword,
                                 std::string& scratch) const;
  [[nodiscard]] std::vector<std::uint32_t> decodeCountryBucket(
      const std::string& upperAlpha2) const;

  std::vector<PostingShard> shards_;
  std::unique_ptr<PostingShard::Builder> openShard_;
  std::vector<std::uint32_t> ips_;
  std::vector<std::uint16_t> ports_;
  /// UPPERCASED alpha2 -> delta-coded doc ids (std::map: deterministic
  /// serialization order).
  std::map<std::string, DeltaIdList> countryBuckets_;
  RecordFetcher fetcher_;
  std::vector<BannerRecord> residentRecords_;
  /// Lowered searchable text of each resident record.
  std::vector<std::string> residentLowered_;
  /// Staging buffers reused across addRecord calls (build is single-writer).
  std::string textScratch_;
  std::string loweredScratch_;
};

/// Probe one reachable endpoint the way a banner crawler does: a plain GET /
/// addressed to the bare IP. This is the single probe primitive every crawl
/// flavour (eager, streamed, incremental) shares, so their records are
/// field-for-field identical for the same endpoint state.
[[nodiscard]] BannerRecord probeEndpoint(simnet::HttpEndpoint& endpoint,
                                         net::Ipv4Addr ip, std::uint16_t port,
                                         const geo::GeoDatabase& geo,
                                         util::SimTime now,
                                         std::size_t bodySnippetLimit);

/// probeEndpoint into a reused record: response storage is moved, not
/// copied, and the body is truncated in place. Field-for-field identical to
/// probeEndpoint (the title is extracted from the full body first).
void probeEndpointInto(simnet::HttpEndpoint& endpoint, net::Ipv4Addr ip,
                       std::uint16_t port, const geo::GeoDatabase& geo,
                       util::SimTime now, std::size_t bodySnippetLimit,
                       BannerRecord& out);

/// The crawl fan-out every crawl flavour shares: `probeOne(i)` for each slot
/// i < count on the shared pool in chunks of 64, or serially in slot order
/// when `threadLimit == 1`. Each probe writes only its own slot, so the
/// results are identical at any thread count.
template <typename ProbeOne>
void probeSlots(std::size_t count, std::size_t threadLimit,
                const ProbeOne& probeOne) {
  if (threadLimit == 1) {
    for (std::size_t i = 0; i < count; ++i) probeOne(i);
    return;
  }
  util::parallelForChunks(
      count,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) probeOne(i);
      },
      threadLimit, 64);
}

/// Probe streamed host `id`: materialize its endpoint from the pure host
/// function and probe it into `out` (probeEndpointInto).
void probeStreamedHostInto(const simnet::WorldStream& stream, std::uint64_t id,
                           const geo::GeoDatabase& geo, util::SimTime now,
                           std::size_t bodySnippetLimit, BannerRecord& out);

/// The fetcher of a streamed crawl taken at `now`: doc `doc` is streamed
/// host `doc - eagerCount` of the stream attached to `world` when the fetch
/// happens, re-probed — byte-identical to what the crawl indexed. Captures
/// `world` and `geo` by reference; throws std::logic_error once the stream
/// is detached.
[[nodiscard]] ShardedBannerIndex::RecordFetcher streamedRecordFetcher(
    simnet::World& world, const geo::GeoDatabase& geo, util::SimTime now,
    std::size_t bodySnippetLimit, std::uint32_t eagerCount);

/// Options for crawlStream.
struct StreamCrawlOptions {
  std::size_t bodySnippetLimit = 2048;
  std::size_t threadLimit = 0;     ///< 1 forces serial probing
  std::uint64_t hostsPerShard = 8192;  ///< stream shard granularity
};

/// Probe every externally visible surface of a world — the same epistemic
/// position as a real Internet-wide scanner: it sees only what is publicly
/// reachable — building a ShardedBannerIndex within O(shard) memory:
///  - eagerly bound surfaces form the leading shard (binding order) and stay
///    resident, so queries over them answer from the crawl-time banners even
///    after the world changes;
///  - each stream shard is materialized, probed, indexed, and discarded.
/// Doc order equals the binding order of the eager reference world
/// (materializeInto), so streamed and eager crawls of one world agree.
/// Surfaces are probed concurrently on the shared thread pool into per-slot
/// records (external-surface handlers must be thread-safe for the crawler's
/// anonymous `GET /`; all in-tree handlers are pure functions of the
/// request); `threadLimit == 1` forces the serial crawl. With a stream
/// attached, the returned index's fetcher re-materializes streamed docs and
/// captures `world` and `geo` by reference — both must outlive the index.
[[nodiscard]] ShardedBannerIndex crawlStream(simnet::World& world,
                                             const geo::GeoDatabase& geo,
                                             StreamCrawlOptions options = {});

/// Internet Census-style exhaustive scanner [10]: probes *every address* in
/// every announced prefix on a port list, not just known-visible surfaces.
/// Finds the same surfaces as crawlStream but demonstrates the
/// larger-scale approach §3.1 mentions as ongoing work.
class CensusScanner {
 public:
  explicit CensusScanner(std::vector<std::uint16_t> ports)
      : ports_(std::move(ports)) {}

  /// Sweep the world's announced address space. Returns records for every
  /// (address, port) that answered. `maxAddressesPerPrefix` caps very large
  /// prefixes to keep sweeps bounded.
  [[nodiscard]] std::vector<BannerRecord> sweep(
      simnet::World& world, const geo::GeoDatabase& geo,
      std::uint64_t maxAddressesPerPrefix = 4096) const;

 private:
  std::vector<std::uint16_t> ports_;
};

}  // namespace urlf::scan

#endif  // URLF_SCAN_BANNER_INDEX_H
