#include "scan/banner_index.h"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "http/html.h"
#include "simnet/world_stream.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace urlf::scan {

BannerRecord probeEndpoint(simnet::HttpEndpoint& endpoint, net::Ipv4Addr ip,
                           std::uint16_t port, const geo::GeoDatabase& geo,
                           util::SimTime now, std::size_t bodySnippetLimit) {
  net::Url url{"http", ip.toString(), port, "/", ""};
  const auto response = endpoint.handle(http::Request::get(url), now);

  BannerRecord record;
  record.ip = ip;
  record.port = port;
  record.statusCode = response.statusCode;
  record.headers = response.headers;
  record.body = response.body.substr(0, bodySnippetLimit);
  record.title = http::extractTitle(response.body);
  record.countryAlpha2 = geo.lookup(ip).value_or("");
  record.observedAt = now;
  return record;
}

void probeEndpointInto(simnet::HttpEndpoint& endpoint, net::Ipv4Addr ip,
                       std::uint16_t port, const geo::GeoDatabase& geo,
                       util::SimTime now, std::size_t bodySnippetLimit,
                       BannerRecord& out) {
  net::Url url{"http", ip.toString(), port, "/", ""};
  auto response = endpoint.handle(http::Request::get(url), now);

  out.ip = ip;
  out.port = port;
  out.statusCode = response.statusCode;
  out.headers = std::move(response.headers);
  out.title = http::extractTitle(response.body);
  if (response.body.size() > bodySnippetLimit)
    response.body.resize(bodySnippetLimit);
  out.body = std::move(response.body);
  out.countryAlpha2 = geo.lookup(ip).value_or("");
  out.observedAt = now;
}

namespace {

void mergeSortedUnique(std::vector<std::uint32_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

std::vector<std::uint32_t> intersectSorted(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

void BannerRecord::appendSearchableText(std::string& out) const {
  out += "HTTP/1.1 ";
  out += std::to_string(statusCode);
  out += "\r\n";
  out += headers.serialize();
  out += title;
  out += "\r\n";
  out += body;
}

std::string BannerRecord::searchableText() const {
  std::string text;
  appendSearchableText(text);
  return text;
}

// --- ShardedBannerIndex -----------------------------------------------------

void ShardedBannerIndex::beginShard(std::string label) {
  if (openShard_) throw std::logic_error("beginShard: shard already open");
  openShard_ = std::make_unique<PostingShard::Builder>(
      std::move(label), static_cast<std::uint32_t>(ips_.size()));
}

void ShardedBannerIndex::addRecord(const BannerRecord& record) {
  if (!openShard_) throw std::logic_error("addRecord: no open shard");
  const auto doc = static_cast<std::uint32_t>(ips_.size());
  textScratch_.clear();
  record.appendSearchableText(textScratch_);
  util::toLowerInto(textScratch_, loweredScratch_);
  openShard_->addDocument(loweredScratch_);
  ips_.push_back(record.ip.value());
  ports_.push_back(record.port);
  countryBuckets_[util::toUpper(record.countryAlpha2)].append(doc);
}

void ShardedBannerIndex::endShard() {
  if (!openShard_) throw std::logic_error("endShard: no open shard");
  shards_.push_back(std::move(*openShard_).finish());
  openShard_.reset();
}

void ShardedBannerIndex::addResidentRecord(BannerRecord record) {
  if (residentRecords_.size() != ips_.size())
    throw std::logic_error("addResidentRecord: after a non-resident record");
  addRecord(record);
  residentLowered_.push_back(loweredScratch_);
  residentRecords_.push_back(std::move(record));
}

ShardedBannerIndex ShardedBannerIndex::fromRecords(
    std::vector<BannerRecord> records, std::size_t shardTargetDocs) {
  if (shardTargetDocs == 0) shardTargetDocs = 1;
  ShardedBannerIndex out;
  out.residentRecords_.reserve(records.size());
  out.residentLowered_.reserve(records.size());
  for (std::size_t begin = 0; begin < records.size();
       begin += shardTargetDocs) {
    const std::size_t end = std::min(records.size(), begin + shardTargetDocs);
    out.beginShard("records#" + std::to_string(begin / shardTargetDocs));
    for (std::size_t i = begin; i < end; ++i)
      out.addResidentRecord(std::move(records[i]));
    out.endShard();
  }
  if (records.empty()) {
    out.beginShard("records#0");
    out.endShard();
  }
  return out;
}

ShardedBannerIndex ShardedBannerIndex::fromParts(
    std::vector<std::uint32_t> ips, std::vector<std::uint16_t> ports,
    std::map<std::string, DeltaIdList> countryBuckets,
    std::vector<PostingShard> shards) {
  if (ips.size() != ports.size())
    throw std::invalid_argument("fromParts: ip/port table size mismatch");
  std::uint64_t running = 0;
  for (const auto& shard : shards) {
    if (shard.docBase() != running)
      throw std::invalid_argument("fromParts: shard doc ranges not contiguous");
    running += shard.docCount();
  }
  if (running != ips.size())
    throw std::invalid_argument("fromParts: shard doc count != table size");
  std::uint64_t bucketed = 0;
  for (const auto& [alpha2, bucket] : countryBuckets) bucketed += bucket.count();
  if (bucketed != ips.size())
    throw std::invalid_argument("fromParts: country buckets don't cover docs");

  ShardedBannerIndex out;
  out.ips_ = std::move(ips);
  out.ports_ = std::move(ports);
  out.countryBuckets_ = std::move(countryBuckets);
  out.shards_ = std::move(shards);
  return out;
}

void ShardedBannerIndex::setResidentRecords(std::vector<BannerRecord> records,
                                            std::vector<std::string> lowered) {
  if (records.size() != lowered.size() || records.size() > docCount())
    throw std::invalid_argument(
        "setResidentRecords: records and texts must match, within docCount");
  residentRecords_ = std::move(records);
  residentLowered_ = std::move(lowered);
}

BannerRecord ShardedBannerIndex::fetchRecord(std::uint32_t doc) const {
  if (const auto* resident = residentRecord(doc)) return *resident;
  if (!fetcher_)
    throw std::logic_error(
        "ShardedBannerIndex: record fetch required but no fetcher attached "
        "(separator/no-token keywords and passive identification need one)");
  return fetcher_(doc);
}

bool ShardedBannerIndex::docContains(std::uint32_t doc,
                                     std::string_view loweredKeyword,
                                     std::string& scratch) const {
  if (doc < residentLowered_.size())
    return residentLowered_[doc].find(loweredKeyword) != std::string::npos;
  scratch.clear();
  fetchRecord(doc).appendSearchableText(scratch);
  util::toLowerInto(scratch, scratch);  // same size: lowers in place
  return scratch.find(loweredKeyword) != std::string::npos;
}

std::vector<std::uint32_t> ShardedBannerIndex::decodeCountryBucket(
    const std::string& upperAlpha2) const {
  std::vector<std::uint32_t> out;
  const auto bucket = countryBuckets_.find(upperAlpha2);
  if (bucket != countryBuckets_.end()) bucket->second.decodeInto(out);
  return out;
}

std::vector<std::uint32_t> ShardedBannerIndex::keywordCandidates(
    const std::string& loweredKeyword) const {
  std::vector<std::string_view> keywordTokens;
  tokenizeAlnum(loweredKeyword, keywordTokens);

  std::vector<std::uint32_t> candidates;
  std::string scratch;
  if (keywordTokens.empty()) {
    // No alphanumeric core (e.g. "=", whitespace, empty): scan every banner
    // — the correctness path, not the fast path (product keywords always
    // have tokens). An empty keyword matches every banner.
    const auto docs = docCount();
    for (std::uint32_t doc = 0; doc < docs; ++doc)
      if (docContains(doc, loweredKeyword, scratch)) candidates.push_back(doc);
    return candidates;
  }

  // Pre-filter on the keyword's longest token: any banner containing the
  // keyword must contain that token inside one of its own tokens, so the
  // union of posting lists over vocabulary tokens containing it is a
  // superset of the exact match set.
  const std::string_view longest = *std::max_element(
      keywordTokens.begin(), keywordTokens.end(),
      [](std::string_view a, std::string_view b) { return a.size() < b.size(); });
  // Shard vocabularies are disjointly scanned; the union across shards is
  // exactly the whole-corpus vocabulary pre-filter.
  for (const auto& shard : shards_) shard.appendCandidates(longest, candidates);
  mergeSortedUnique(candidates);

  // A keyword that *is* its longest token (no separators) is exact already;
  // anything else ("cfru=", "mcafee web gateway", "8080/webadmin/") is
  // verified against the banner text.
  if (loweredKeyword == longest) return candidates;
  std::vector<std::uint32_t> verified;
  verified.reserve(candidates.size());
  for (const auto doc : candidates)
    if (docContains(doc, loweredKeyword, scratch)) verified.push_back(doc);
  return verified;
}

std::vector<std::uint32_t> ShardedBannerIndex::search(
    const Query& query) const {
  std::vector<std::uint32_t> ids =
      keywordCandidates(util::toLower(query.keyword));
  if (query.countryAlpha2) {
    const auto bucket = decodeCountryBucket(util::toUpper(*query.countryAlpha2));
    ids = intersectSorted(ids, bucket);
  }
  return ids;
}

std::vector<std::uint32_t> ShardedBannerIndex::searchAll(
    const std::vector<Query>& queries) const {
  std::vector<std::string> keywords;
  std::unordered_map<std::string, std::size_t> keywordSlot;
  std::vector<std::size_t> querySlot(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::string lowered = util::toLower(queries[q].keyword);
    const auto [it, inserted] = keywordSlot.emplace(lowered, keywords.size());
    if (inserted) keywords.push_back(lowered);
    querySlot[q] = it->second;
  }

  std::vector<std::vector<std::uint32_t>> perKeyword(keywords.size());
  util::parallelFor(keywords.size(), [&](std::size_t k) {
    perKeyword[k] = keywordCandidates(keywords[k]);
  });

  // Country facets: give each referenced country that has docs a slot and
  // mark its docs, decoding each bucket once per searchAll. A facet naming
  // a country without docs matches nothing.
  constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
  std::map<std::string, std::uint32_t> countrySlot;
  std::vector<std::size_t> queryCountry(queries.size(), kNoSlot);
  std::vector<std::uint32_t> countryOf;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (!queries[q].countryAlpha2) continue;
    auto key = util::toUpper(*queries[q].countryAlpha2);
    const auto bucket = countryBuckets_.find(key);
    if (bucket == countryBuckets_.end()) continue;
    const auto [it, inserted] = countrySlot.emplace(
        std::move(key), static_cast<std::uint32_t>(countrySlot.size()));
    queryCountry[q] = it->second;
    if (!inserted) continue;
    if (countryOf.empty())
      countryOf.assign(docCount(), std::numeric_limits<std::uint32_t>::max());
    std::vector<std::uint32_t> ids;
    bucket->second.decodeInto(ids);
    for (const auto doc : ids) countryOf[doc] = it->second;
  }

  // Split each keyword's candidates by country slot in one walk, replacing
  // one sorted intersection per (keyword, country) pair; each part stays
  // ascending because the candidate list is.
  std::vector<std::vector<std::vector<std::uint32_t>>> byCountry(
      keywords.size());
  if (!countrySlot.empty()) {
    for (std::size_t k = 0; k < keywords.size(); ++k) {
      byCountry[k].resize(countrySlot.size());
      for (const auto doc : perKeyword[k])
        if (countryOf[doc] < countrySlot.size())
          byCountry[k][countryOf[doc]].push_back(doc);
    }
  }

  static const std::vector<std::uint32_t> kNoIds;
  std::vector<std::uint32_t> out;
  std::set<std::uint64_t> seen;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::vector<std::uint32_t>* ids = &perKeyword[querySlot[q]];
    if (queries[q].countryAlpha2)
      ids = queryCountry[q] == kNoSlot
                ? &kNoIds
                : &byCountry[querySlot[q]][queryCountry[q]];
    for (const auto doc : *ids) {
      const auto s = surface(doc);
      const std::uint64_t key = (std::uint64_t{s.ip.value()} << 16) | s.port;
      if (seen.insert(key).second) out.push_back(doc);
    }
  }
  return out;
}

std::size_t ShardedBannerIndex::vocabularySize() const {
  std::size_t count = 0;
  forEachDistinctToken(
      shards_,
      [&count](std::string_view,
               std::span<const std::pair<std::uint32_t, std::uint32_t>>) {
        ++count;
      });
  return count;
}

std::size_t ShardedBannerIndex::memoryBytes() const {
  std::size_t total = ips_.capacity() * sizeof(std::uint32_t) +
                      ports_.capacity() * sizeof(std::uint16_t);
  for (const auto& shard : shards_) total += shard.memoryBytes();
  for (const auto& [alpha2, bucket] : countryBuckets_)
    total += alpha2.size() + bucket.byteSize() + sizeof(DeltaIdList);
  return total;
}

// --- crawlStream ------------------------------------------------------------

ShardedBannerIndex crawlStream(simnet::World& world,
                               const geo::GeoDatabase& geo,
                               StreamCrawlOptions options) {
  const auto surfaces = world.externalSurfaces();
  const auto now = world.now();
  const auto* stream = world.hostStream();
  const auto eagerCount = static_cast<std::uint32_t>(surfaces.size());

  ShardedBannerIndex index;

  // Eagerly bound surfaces lead, in binding order, so doc ids line up with
  // the eagerly materialized reference world. Their records stay resident:
  // queries read the crawl-time banners in place.
  {
    std::vector<BannerRecord> batch(surfaces.size());
    probeSlots(surfaces.size(), options.threadLimit, [&](std::size_t i) {
      const auto& surface = surfaces[i];
      probeEndpointInto(*surface.endpoint, surface.ip, surface.port, geo, now,
                        options.bodySnippetLimit, batch[i]);
    });
    index.beginShard("eager/bindings");
    for (auto& record : batch) index.addResidentRecord(std::move(record));
    index.endShard();
  }
  if (stream == nullptr) return index;

  // Stream shards: materialize, probe, index, discard — peak memory is one
  // shard's worth of banners, never the whole world.
  const auto hostsPerShard =
      options.hostsPerShard == 0 ? std::uint64_t{8192} : options.hostsPerShard;
  std::vector<BannerRecord> batch;
  for (const auto& shard : stream->shards(hostsPerShard)) {
    const auto count = static_cast<std::size_t>(shard.end - shard.begin);
    batch.resize(count);
    probeSlots(count, options.threadLimit, [&](std::size_t i) {
      probeStreamedHostInto(*stream, shard.begin + i, geo, now,
                            options.bodySnippetLimit, batch[i]);
    });
    index.beginShard(shard.label);
    for (const auto& record : batch) index.addRecord(record);
    index.endShard();
  }

  index.setRecordFetcher(streamedRecordFetcher(
      world, geo, now, options.bodySnippetLimit, eagerCount));
  return index;
}

void probeStreamedHostInto(const simnet::WorldStream& stream, std::uint64_t id,
                           const geo::GeoDatabase& geo, util::SimTime now,
                           std::size_t bodySnippetLimit, BannerRecord& out) {
  const auto host = stream.host(id);
  const auto server = simnet::WorldStream::materializeEndpoint(host);
  probeEndpointInto(*server, host.ip, host.port, geo, now, bodySnippetLimit,
                    out);
}

ShardedBannerIndex::RecordFetcher streamedRecordFetcher(
    simnet::World& world, const geo::GeoDatabase& geo, util::SimTime now,
    std::size_t bodySnippetLimit, std::uint32_t eagerCount) {
  return [&world, &geo, now, bodySnippetLimit, eagerCount](std::uint32_t doc) {
    const auto* attached = world.hostStream();
    if (attached == nullptr)
      throw std::logic_error("streamed record fetch: host stream detached");
    BannerRecord record;
    probeStreamedHostInto(*attached, doc - eagerCount, geo, now,
                          bodySnippetLimit, record);
    return record;
  };
}

std::vector<BannerRecord> CensusScanner::sweep(
    simnet::World& world, const geo::GeoDatabase& geo,
    std::uint64_t maxAddressesPerPrefix) const {
  std::vector<BannerRecord> out;
  for (const auto* as : world.allAses()) {
    for (const auto& prefix : as->prefixes()) {
      const std::uint64_t count = std::min(prefix.size(), maxAddressesPerPrefix);
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto ip = prefix.addressAt(i);
        for (const auto port : ports_) {
          auto* endpoint = world.externalEndpointAt(ip, port);
          if (endpoint == nullptr) continue;
          out.push_back(
              probeEndpoint(*endpoint, ip, port, geo, world.now(), 2048));
        }
      }
    }
  }
  return out;
}

}  // namespace urlf::scan
