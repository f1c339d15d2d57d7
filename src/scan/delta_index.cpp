#include "scan/delta_index.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "simnet/world_stream.h"
#include "util/hash.h"
#include "util/strings.h"

namespace urlf::scan {

IncrementalCrawler::IncrementalCrawler(simnet::World& world,
                                       const geo::GeoDatabase& geo,
                                       IncrementalCrawlOptions options)
    : world_(&world), geo_(&geo), options_(options) {
  if (options_.hostsPerShard == 0) options_.hostsPerShard = 8192;
}

std::uint64_t IncrementalCrawler::layoutSignature() const {
  std::uint64_t sig = util::kFnvOffsetBasis;
  const auto fold = [&sig](std::uint64_t value) {
    char bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<char>((value >> (i * 8)) & 0xFF);
    sig = util::fnv1a64(std::string_view(bytes, 8), sig);
  };
  for (const auto& surface : world_->externalSurfaces()) {
    fold(surface.ip.value());
    fold(surface.port);
  }
  fold(0xEA6E55ECU);  // eager/stream separator
  if (const auto* stream = world_->hostStream()) {
    for (const auto& shard : stream->shards(options_.hostsPerShard)) {
      sig = util::fnv1a64(shard.label, sig);
      fold(shard.begin);
      fold(shard.end);
    }
  }
  return sig;
}

void IncrementalCrawler::rebuildLayout() {
  cells_.clear();
  const auto eagerCount =
      static_cast<std::uint32_t>(world_->externalSurfaces().size());
  Cell eager;
  eager.label = "eager/bindings";
  eager.docBase = 0;
  cells_.push_back(std::move(eager));
  if (const auto* stream = world_->hostStream()) {
    for (const auto& shard : stream->shards(options_.hostsPerShard)) {
      Cell cell;
      cell.label = shard.label;
      cell.begin = shard.begin;
      cell.end = shard.end;
      cell.docBase = eagerCount + static_cast<std::uint32_t>(shard.begin);
      cells_.push_back(std::move(cell));
    }
  }
}

namespace {

/// Each record's lowered searchable text — what the index tokenizes.
std::vector<std::string> loweredTexts(
    const std::vector<BannerRecord>& records) {
  std::vector<std::string> lowered(records.size());
  std::string text;
  for (std::size_t i = 0; i < records.size(); ++i) {
    text.clear();
    records[i].appendSearchableText(text);
    util::toLowerInto(text, lowered[i]);
  }
  return lowered;
}

}  // namespace

void IncrementalCrawler::buildCell(Cell& cell,
                                   const std::vector<BannerRecord>& records,
                                   const std::vector<std::string>& lowered) {
  cell.ips.clear();
  cell.ports.clear();
  cell.countryDocs.clear();
  cell.ips.reserve(records.size());
  cell.ports.reserve(records.size());
  PostingShard::Builder builder(cell.label, cell.docBase);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    builder.addDocument(lowered[i]);
    cell.ips.push_back(record.ip.value());
    cell.ports.push_back(record.port);
    cell.countryDocs[util::toUpper(record.countryAlpha2)].push_back(
        cell.docBase + static_cast<std::uint32_t>(i));
  }
  cell.shard = std::move(builder).finish();
}

void IncrementalCrawler::patchCell(Cell& cell,
                                   const std::vector<std::uint32_t>& docs,
                                   const std::vector<std::string>& lowered,
                                   const std::vector<std::string>& countries) {
  cell.shard.replaceDocuments(docs, lowered);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const auto doc = docs[i];
    const auto alpha2 = util::toUpper(countries[i]);
    // Every doc sits in exactly one bucket; move it only when it changed,
    // and drop a bucket it leaves empty (a fresh build has none).
    for (auto bucket = cell.countryDocs.begin();
         bucket != cell.countryDocs.end(); ++bucket) {
      auto& ids = bucket->second;
      const auto at = std::lower_bound(ids.begin(), ids.end(), doc);
      if (at == ids.end() || *at != doc) continue;
      if (bucket->first == alpha2) break;
      ids.erase(at);
      if (ids.empty()) cell.countryDocs.erase(bucket);
      auto& target = cell.countryDocs[alpha2];
      target.insert(std::lower_bound(target.begin(), target.end(), doc), doc);
      break;
    }
  }
}

void IncrementalCrawler::refreshEagerCell() {
  const auto surfaces = world_->externalSurfaces();
  std::vector<BannerRecord> records(surfaces.size());
  probeSlots(surfaces.size(), options_.threadLimit, [&](std::size_t i) {
    const auto& surface = surfaces[i];
    probeEndpointInto(*surface.endpoint, surface.ip, surface.port, *geo_,
                      refreshedAt_, options_.bodySnippetLimit, records[i]);
  });

  auto& cell = cells_.front();
  auto lowered = loweredTexts(records);
  if (structural_) {
    buildCell(cell, records, lowered);
    docsReindexed_ += records.size();
  } else {
    // Same layout, so doc i is still surface i: patch only the docs whose
    // indexed content (lowered text, country) moved.
    std::vector<std::uint32_t> docs;
    std::vector<std::string> changedText;
    std::vector<std::string> changedCountry;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (lowered[i] == eagerLowered_[i] &&
          records[i].countryAlpha2 == eagerRecords_[i].countryAlpha2)
        continue;
      docs.push_back(cell.docBase + static_cast<std::uint32_t>(i));
      changedText.push_back(lowered[i]);
      changedCountry.push_back(records[i].countryAlpha2);
    }
    if (!docs.empty()) patchCell(cell, docs, changedText, changedCountry);
    docsReindexed_ += docs.size();
  }
  eagerRecords_ = std::move(records);
  eagerLowered_ = std::move(lowered);
  ++cellsRebuilt_;
}

void IncrementalCrawler::refreshStreamCells(const DirtyHostFn& dirtyHost) {
  if (cells_.size() == 1) return;
  const auto* stream = world_->hostStream();
  if (stream == nullptr)
    throw std::logic_error("IncrementalCrawler: host stream detached");
  const auto probeHosts = [&](const std::vector<std::uint64_t>& ids,
                              std::vector<BannerRecord>& records) {
    records.resize(ids.size());
    probeSlots(ids.size(), options_.threadLimit, [&](std::size_t i) {
      probeStreamedHostInto(*stream, ids[i], *geo_, refreshedAt_,
                            options_.bodySnippetLimit, records[i]);
    });
  };

  std::vector<std::uint64_t> ids;
  std::vector<BannerRecord> records;
  if (structural_) {
    for (std::size_t c = 1; c < cells_.size(); ++c) {
      auto& cell = cells_[c];
      ids.clear();
      for (auto id = cell.begin; id < cell.end; ++id) ids.push_back(id);
      probeHosts(ids, records);
      buildCell(cell, records, loweredTexts(records));
      docsReindexed_ += records.size();
      ++cellsRebuilt_;
    }
    return;
  }

  // Every dirty host of every cell, probed in one batch, then patched into
  // its cell: cell c owns ids [starts[c - 1], starts[c]).
  std::vector<std::size_t> starts{0};
  for (std::size_t c = 1; c < cells_.size(); ++c) {
    if (dirtyHost)
      for (auto id = cells_[c].begin; id < cells_[c].end; ++id)
        if (dirtyHost(id)) ids.push_back(id);
    starts.push_back(ids.size());
  }
  probeHosts(ids, records);
  auto lowered = loweredTexts(records);

  std::vector<std::uint32_t> docs;
  std::vector<std::string> cellText;
  std::vector<std::string> cellCountry;
  for (std::size_t c = 1; c < cells_.size(); ++c) {
    if (starts[c - 1] == starts[c]) continue;
    auto& cell = cells_[c];
    docs.clear();
    cellText.clear();
    cellCountry.clear();
    for (auto i = starts[c - 1]; i < starts[c]; ++i) {
      docs.push_back(cell.docBase +
                     static_cast<std::uint32_t>(ids[i] - cell.begin));
      cellText.push_back(std::move(lowered[i]));
      cellCountry.push_back(std::move(records[i].countryAlpha2));
    }
    patchCell(cell, docs, cellText, cellCountry);
    docsReindexed_ += docs.size();
    ++cellsRebuilt_;
  }
}

void IncrementalCrawler::refresh(const DirtyHostFn& dirtyHost) {
  const auto signature = layoutSignature();
  structural_ = !built_ || signature != signature_;
  signature_ = signature;
  refreshedAt_ = world_->now();
  cellsRebuilt_ = 0;
  docsReindexed_ = 0;

  // A layout change rebuilds everything — stale doc bases are never kept.
  if (structural_) rebuildLayout();
  refreshEagerCell();
  refreshStreamCells(dirtyHost);
  built_ = true;
}

ShardedBannerIndex IncrementalCrawler::assemble() const {
  std::vector<std::uint32_t> ips;
  std::vector<std::uint16_t> ports;
  std::map<std::string, DeltaIdList> countryBuckets;
  std::vector<PostingShard> shards;
  shards.reserve(cells_.size());

  std::size_t docs = 0;
  for (const auto& cell : cells_) docs += cell.ips.size();
  ips.reserve(docs);
  ports.reserve(docs);

  for (const auto& cell : cells_) {
    ips.insert(ips.end(), cell.ips.begin(), cell.ips.end());
    ports.insert(ports.end(), cell.ports.begin(), cell.ports.end());
    // Cells are visited in ascending doc order, and each cell's per-country
    // lists ascend, so appends stay strictly ascending per bucket.
    for (const auto& [alpha2, cellDocs] : cell.countryDocs) {
      auto& bucket = countryBuckets[alpha2];
      for (const auto doc : cellDocs) bucket.append(doc);
    }
    shards.push_back(cell.shard);
  }

  auto index = ShardedBannerIndex::fromParts(
      std::move(ips), std::move(ports), std::move(countryBuckets),
      std::move(shards));
  index.setResidentRecords(eagerRecords_, eagerLowered_);
  if (world_->hostStream() != nullptr)
    index.setRecordFetcher(streamedRecordFetcher(
        *world_, *geo_, refreshedAt_, options_.bodySnippetLimit,
        static_cast<std::uint32_t>(eagerRecords_.size())));
  return index;
}

}  // namespace urlf::scan
