#include "scan/delta_index.h"

#include <stdexcept>
#include <utility>

#include "simnet/world_stream.h"
#include "util/hash.h"
#include "util/strings.h"
#include "util/thread_pool.h"

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

/// Probe a batch of slots, mirroring crawlStream's fan-out (chunk 64,
/// serial when threadLimit == 1).
template <typename ProbeOne>
void probeBatch(std::size_t count, std::size_t threadLimit,
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

}  // namespace

void IncrementalCrawler::rebuildEagerCell(Cell& cell) const {
  const auto surfaces = world_->externalSurfaces();
  const auto now = world_->now();
  std::vector<BannerRecord> batch(surfaces.size());
  probeBatch(surfaces.size(), options_.threadLimit, [&](std::size_t i) {
    const auto& surface = surfaces[i];
    probeEndpointInto(*surface.endpoint, surface.ip, surface.port, *geo_, now,
                      options_.bodySnippetLimit, batch[i]);
  });

  cell.ips.clear();
  cell.ports.clear();
  cell.countryDocs.clear();
  cell.ips.reserve(batch.size());
  cell.ports.reserve(batch.size());
  PostingShard::Builder builder(cell.label, cell.docBase);
  std::string text;
  std::string lowered;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& record = batch[i];
    text.clear();
    record.appendSearchableText(text);
    util::toLowerInto(text, lowered);
    builder.addDocument(lowered);
    cell.ips.push_back(record.ip.value());
    cell.ports.push_back(record.port);
    cell.countryDocs[util::toUpper(record.countryAlpha2)].push_back(
        cell.docBase + static_cast<std::uint32_t>(i));
  }
  cell.shard = std::move(builder).finish();
}

void IncrementalCrawler::rebuildStreamCell(Cell& cell) const {
  const auto* stream = world_->hostStream();
  if (stream == nullptr)
    throw std::logic_error("IncrementalCrawler: host stream detached");
  const auto now = world_->now();
  const auto count = static_cast<std::size_t>(cell.end - cell.begin);
  std::vector<BannerRecord> batch(count);
  probeBatch(count, options_.threadLimit, [&](std::size_t i) {
    const auto host = stream->host(cell.begin + i);
    const auto server = simnet::WorldStream::materializeEndpoint(host);
    probeEndpointInto(*server, host.ip, host.port, *geo_, now,
                      options_.bodySnippetLimit, batch[i]);
  });

  cell.ips.clear();
  cell.ports.clear();
  cell.countryDocs.clear();
  cell.ips.reserve(count);
  cell.ports.reserve(count);
  PostingShard::Builder builder(cell.label, cell.docBase);
  std::string text;
  std::string lowered;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& record = batch[i];
    text.clear();
    record.appendSearchableText(text);
    util::toLowerInto(text, lowered);
    builder.addDocument(lowered);
    cell.ips.push_back(record.ip.value());
    cell.ports.push_back(record.port);
    cell.countryDocs[util::toUpper(record.countryAlpha2)].push_back(
        cell.docBase + static_cast<std::uint32_t>(i));
  }
  cell.shard = std::move(builder).finish();
}

void IncrementalCrawler::refresh(const DirtyHostFn& dirtyHost) {
  const auto signature = layoutSignature();
  structural_ = !built_ || signature != signature_;
  signature_ = signature;

  if (structural_) rebuildLayout();

  std::vector<std::size_t> toRebuild;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (structural_ || c == 0) {
      // Cell 0 is the eager cell: bound surfaces answer live policy/binding
      // state the change feed cannot see, so it rebuilds every refresh. A
      // layout change rebuilds everything — stale doc bases are never kept.
      toRebuild.push_back(c);
      continue;
    }
    const auto& cell = cells_[c];
    bool dirty = false;
    if (dirtyHost) {
      for (std::uint64_t id = cell.begin; id < cell.end && !dirty; ++id)
        dirty = dirtyHost(id);
    }
    if (dirty) toRebuild.push_back(c);
  }

  for (const auto c : toRebuild) {
    if (c == 0) {
      rebuildEagerCell(cells_[c]);
    } else {
      rebuildStreamCell(cells_[c]);
    }
  }

  cellsRebuilt_ = toRebuild.size();
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

  // Eager docs re-probe their bound endpoints (crawlStream keeps them
  // resident instead; both give the banners of the latest refresh until the
  // world changes), streamed docs re-materialize the pure host function.
  auto surfaces = world_->externalSurfaces();
  const auto eagerCount = static_cast<std::uint32_t>(surfaces.size());
  index.setRecordFetcher([world = world_, geo = geo_,
                          surfaces = std::move(surfaces),
                          now = world_->now(),
                          limit = options_.bodySnippetLimit,
                          eagerCount](std::uint32_t doc) {
    if (doc < eagerCount) {
      const auto& surface = surfaces[doc];
      return probeEndpoint(*surface.endpoint, surface.ip, surface.port, *geo,
                           now, limit);
    }
    const auto* attached = world->hostStream();
    if (attached == nullptr)
      throw std::logic_error("IncrementalCrawler fetcher: stream detached");
    const auto host = attached->host(doc - eagerCount);
    const auto server = simnet::WorldStream::materializeEndpoint(host);
    return probeEndpoint(*server, host.ip, host.port, *geo, now, limit);
  });
  return index;
}

}  // namespace urlf::scan
