// Equivalence properties of streaming world generation (DESIGN.md §4.5):
//  - streamed hosts are a pure function of (seed, id), with hostAt as the
//    exact inverse of host();
//  - shards() partitions the id space contiguously for any target size;
//  - crawlStream over a stream-attached world is byte-identical to
//    crawlStream over the eagerly materialized reference world — records,
//    searches (checked against the oracles linear scan), and identifyAll
//    results all agree, for any shard granularity;
//  - eagerly bound surfaces are a crawl-time snapshot: after the world
//    changes, searches and passive identification still answer from the
//    crawled banners, while streamed docs are re-materialized;
//  - incremental ≡ full: after every IncrementalCrawler::refresh over a
//    churning stream, the assembled index is byte-identical to a fresh
//    crawlStream of the same world, keeps the same resident records and
//    serves the same records, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/identifier.h"
#include "core/serialize.h"
#include "net/cctld.h"
#include "oracles/linear_scan.h"
#include "scan/banner_index.h"
#include "scan/delta_index.h"
#include "scan/serialize.h"
#include "scenarios/random_world.h"
#include "simnet/churn_stream.h"
#include "simnet/origin_server.h"
#include "simnet/world_stream.h"

namespace urlf::simnet {
namespace {

ProceduralHostConfig smallStream() {
  ProceduralHostConfig config;
  config.hosts = 1200;
  config.countries = 5;
  config.baitFraction = 0.05;
  return config;
}

scenarios::RandomWorldConfig smallWorld() {
  scenarios::RandomWorldConfig config;
  config.countries = 6;
  config.decoys = 8;
  config.contentSites = 6;
  return config;
}

TEST(WorldStreamProperty, HostIsPureAndHostAtIsItsInverse) {
  const ProceduralHostStream stream(4242, smallStream());
  ASSERT_EQ(stream.hostCount(), 1200u);

  for (std::uint64_t id = 0; id < stream.hostCount(); id += 37) {
    const auto a = stream.host(id);
    const auto b = stream.host(id);
    EXPECT_EQ(a.id, id);
    EXPECT_EQ(a.hostname, b.hostname);
    EXPECT_EQ(a.ip.value(), b.ip.value());
    EXPECT_EQ(a.countryAlpha2, b.countryAlpha2);
    EXPECT_EQ(a.serverHeader, b.serverHeader);
    EXPECT_EQ(a.page.title, b.page.title);
    EXPECT_EQ(a.page.body, b.page.body);

    const auto inverse = stream.hostAt(a.ip, a.port);
    ASSERT_TRUE(inverse.has_value()) << "id=" << id;
    EXPECT_EQ(*inverse, id);
    EXPECT_FALSE(stream.hostAt(a.ip, a.port + 1).has_value());
  }
  EXPECT_THROW((void)stream.host(stream.hostCount()), std::out_of_range);
}

TEST(WorldStreamProperty, ShardsPartitionTheIdSpaceAtAnyGranularity) {
  const ProceduralHostStream stream(7, smallStream());
  for (const std::uint64_t target : {1ull, 7ull, 97ull, 100000000ull}) {
    const auto shards = stream.shards(target);
    std::uint64_t next = 0;
    for (const auto& shard : shards) {
      EXPECT_EQ(shard.begin, next);
      EXPECT_LT(shard.begin, shard.end);
      EXPECT_LE(shard.end - shard.begin, target);
      EXPECT_FALSE(shard.label.empty());
      next = shard.end;
    }
    EXPECT_EQ(next, stream.hostCount()) << "target=" << target;
  }
}

/// Build the streamed world (stream attached, nothing bound) and the eager
/// reference twin (every streamed host bound in id order, after the same
/// random-world construction), then check observational equivalence.
struct TwinWorlds {
  scenarios::RandomWorld streamed;
  scenarios::RandomWorld eager;
  std::shared_ptr<ProceduralHostStream> stream;

  TwinWorlds(std::uint64_t seed, const ProceduralHostConfig& config)
      : streamed(seed, smallWorld()),
        eager(seed, smallWorld()),
        stream(std::make_shared<ProceduralHostStream>(seed * 31 + 1, config)) {
    stream->announceInto(streamed.world());
    streamed.world().attachHostStream(stream);

    stream->announceInto(eager.world());
    stream->materializeInto(eager.world());
  }
};

TEST(WorldStreamProperty, StreamedCrawlIsByteIdenticalToEagerReference) {
  for (const std::uint64_t hostsPerShard : {97ull, 1000000ull}) {
    TwinWorlds twins(11, smallStream());
    const auto geoStreamed = twins.streamed.world().buildGeoDatabase();
    const auto geoEager = twins.eager.world().buildGeoDatabase();

    scan::StreamCrawlOptions options;
    options.hostsPerShard = hostsPerShard;
    const auto sharded =
        scan::crawlStream(twins.streamed.world(), geoStreamed, options);

    const auto reference = scan::crawlStream(twins.eager.world(), geoEager);
    const oracles::LinearBannerScan oracle(reference.residentRecords());

    ASSERT_EQ(sharded.docCount(), reference.docCount());
    ASSERT_EQ(oracle.size(), reference.docCount());
    ASSERT_GT(sharded.docCount(), 0u);

    // Every re-fetched streamed record equals the eagerly crawled one.
    std::vector<scan::BannerRecord> fetched;
    for (std::uint32_t doc = 0; doc < sharded.docCount(); ++doc)
      fetched.push_back(sharded.fetchRecord(doc));
    EXPECT_EQ(scan::exportRecords(fetched, 0),
              scan::exportRecords(oracle.records(), 0));

    // The §3.1 keyword×country fan-out returns the same surfaces.
    std::vector<scan::Query> queries;
    for (const auto product : filters::allProducts()) {
      for (const auto& keyword : core::Identifier::shodanKeywords(product)) {
        queries.push_back({keyword, std::nullopt});
        for (const auto& country : net::allCountries())
          queries.push_back({keyword, std::string(country.alpha2)});
      }
    }
    const auto shardedDocs = sharded.searchAll(queries);
    EXPECT_EQ(shardedDocs, oracle.searchAll(queries));
    EXPECT_EQ(shardedDocs, reference.searchAll(queries));
    EXPECT_GT(shardedDocs.size(), 0u)
        << "bait fraction should have planted keyword candidates";

    EXPECT_EQ(sharded.vocabularySize(), oracle.vocabularySize());
  }
}

TEST(WorldStreamProperty, IdentifyAllAgreesAcrossStreamedAndEagerWorlds) {
  TwinWorlds twins(23, smallStream());
  const auto geoStreamed = twins.streamed.world().buildGeoDatabase();
  const auto geoEager = twins.eager.world().buildGeoDatabase();

  const auto sharded = scan::crawlStream(twins.streamed.world(), geoStreamed);
  const auto reference = scan::crawlStream(twins.eager.world(), geoEager);

  const core::Identifier streamedId(
      twins.streamed.world(), sharded,
      fingerprint::Engine::withBuiltinSignatures(), geoStreamed,
      twins.streamed.world().buildAsnDatabase());
  const core::Identifier eagerId(
      twins.eager.world(), reference,
      fingerprint::Engine::withBuiltinSignatures(), geoEager,
      twins.eager.world().buildAsnDatabase());

  const auto fromStream = streamedId.identifyAll();
  const auto fromEager = eagerId.identifyAll();
  EXPECT_EQ(core::toJson(fromStream).dump(2), core::toJson(fromEager).dump(2));

  // Passive mode exercises the record fetcher instead of live probes.
  const auto passiveStream = streamedId.identifyAllPassive();
  const auto passiveEager = eagerId.identifyAllPassive();
  EXPECT_EQ(core::toJson(passiveStream).dump(2),
            core::toJson(passiveEager).dump(2));
}

TEST(WorldStreamProperty, SerialAndParallelStreamCrawlsAgree) {
  TwinWorlds a(5, smallStream());
  TwinWorlds b(5, smallStream());
  const auto geoA = a.streamed.world().buildGeoDatabase();
  const auto geoB = b.streamed.world().buildGeoDatabase();

  scan::StreamCrawlOptions serialOptions;
  serialOptions.threadLimit = 1;
  const auto serial = scan::crawlStream(a.streamed.world(), geoA, serialOptions);
  const auto parallel = scan::crawlStream(b.streamed.world(), geoB);

  EXPECT_EQ(scan::exportShardedIndex(serial),
            scan::exportShardedIndex(parallel));
}

TEST(WorldStreamProperty, ResidentDocsAreACrawlTimeSnapshot) {
  scenarios::RandomWorld random(41, smallWorld());
  auto& world = random.world();
  const auto stream = std::make_shared<ProceduralHostStream>(42, smallStream());
  stream->announceInto(world);
  world.attachHostStream(stream);

  // A bound console whose banner carries SmartFilter's separator keywords
  // ("mcafee web gateway", "url blocked") and its title signature.
  world.createAs(64999, "AS-SNAPSHOT", "Snapshot ISP", "AE",
                 {net::IpPrefix::parse("203.0.113.0/24").value()});
  auto& console = world.makeEndpoint<OriginServer>("console.snapshot.example");
  Page page;
  page.title = "McAfee Web Gateway";
  page.body = "<h1>URL Blocked</h1>";
  console.setPage("/", page);
  const auto consoleIp = world.allocateAddress(64999);
  world.bind(consoleIp, 80, console, true);

  const auto geo = world.buildGeoDatabase();
  const auto index = scan::crawlStream(world, geo);
  const auto eagerCount =
      static_cast<std::uint32_t>(world.externalSurfaces().size());
  ASSERT_EQ(index.residentRecords().size(), eagerCount);
  ASSERT_GT(index.docCount(), eagerCount);
  std::uint32_t consoleDoc = 0;
  while (consoleDoc < eagerCount &&
         index.surface(consoleDoc).ip.value() != consoleIp.value())
    ++consoleDoc;
  ASSERT_LT(consoleDoc, eagerCount);

  const core::Identifier identifier(
      world, index, fingerprint::Engine::withBuiltinSignatures(), geo,
      world.buildAsnDatabase());
  const std::vector<scan::Query> separators = {
      {"mcafee web gateway", std::nullopt}, {"url blocked", std::nullopt}};
  const auto hitsBefore = index.searchAll(separators);
  const auto passiveBefore =
      core::toJson(identifier.identifyAllPassive()).dump(2);
  ASSERT_NE(std::find(hitsBefore.begin(), hitsBefore.end(), consoleDoc),
            hitsBefore.end());
  ASSERT_NE(passiveBefore.find(consoleIp.toString()), std::string::npos);

  // Change the bound surface after the crawl; a live probe sees the change.
  page.title = "Plain Blog";
  page.body = "<h1>nothing to see</h1>";
  console.setPage("/", page);
  ASSERT_EQ(scan::probeEndpoint(console, consoleIp, 80, geo, world.now(), 2048)
                .title,
            "Plain Blog");

  // Resident docs answer from the crawl-time banners.
  EXPECT_EQ(index.searchAll(separators), hitsBefore);
  EXPECT_EQ(index.fetchRecord(consoleDoc).title, "McAfee Web Gateway");
  EXPECT_EQ(core::toJson(identifier.identifyAllPassive()).dump(2),
            passiveBefore);

  // Streamed docs are re-materialized through the fetcher: equal to a fresh
  // probe of the host, and unavailable once the stream is detached.
  for (std::uint32_t doc = eagerCount; doc < index.docCount(); doc += 97) {
    const auto host = stream->host(doc - eagerCount);
    const auto server = WorldStream::materializeEndpoint(host);
    EXPECT_EQ(scan::exportRecords({index.fetchRecord(doc)}, 0),
              scan::exportRecords({scan::probeEndpoint(*server, host.ip,
                                                       host.port, geo,
                                                       world.now(), 2048)},
                                  0));
  }
  world.attachHostStream(nullptr);
  EXPECT_THROW((void)index.fetchRecord(eagerCount), std::logic_error);
  EXPECT_EQ(index.fetchRecord(consoleDoc).title, "McAfee Web Gateway");
}

TEST(WorldStreamProperty, IncrementalCrawlerMatchesAFreshCrawlEveryTick) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    scenarios::RandomWorld random(61, smallWorld());
    auto& world = random.world();
    ProceduralHostConfig config = smallStream();
    config.hosts = 2000;
    ChurnConfig churnConfig;
    churnConfig.rebrandRate = 0.08;
    churnConfig.parkRate = 0.04;
    churnConfig.baitFraction = config.baitFraction;
    const auto churn = std::make_shared<ChurnHostStream>(
        std::make_shared<ProceduralHostStream>(62, config), 63, churnConfig);
    churn->announceInto(world);
    world.attachHostStream(churn);

    // A bound console whose banner changes in place (tick 2) and a second
    // one bound later, which moves the cell layout (tick 4).
    world.createAs(64998, "AS-CHURN", "Churn ISP", "AE",
                   {net::IpPrefix::parse("198.51.100.0/24").value()});
    auto& console = world.makeEndpoint<OriginServer>("console.churn.example");
    Page page;
    page.title = "McAfee Web Gateway";
    page.body = "<h1>URL Blocked</h1>";
    console.setPage("/", page);
    world.bind(world.allocateAddress(64998), 80, console, true);
    auto& late = world.makeEndpoint<OriginServer>("late.churn.example");
    Page latePage;
    latePage.title = "Netsweeper WebAdmin";
    latePage.body = "<p>webadmin deny page</p>";
    late.setPage("/", latePage);

    const auto geo = world.buildGeoDatabase();
    scan::IncrementalCrawlOptions crawlOptions;
    crawlOptions.threadLimit = threads;
    crawlOptions.hostsPerShard = 64;
    scan::IncrementalCrawler crawler(world, geo, crawlOptions);
    scan::StreamCrawlOptions freshOptions;
    freshOptions.threadLimit = threads;
    freshOptions.hostsPerShard = 64;

    for (std::uint64_t tick = 0; tick <= 6; ++tick) {
      SCOPED_TRACE("tick=" + std::to_string(tick));
      if (tick > 0) world.clock().advanceHours(6);
      if (tick == 2) {
        page.title = "Plain Blog";
        page.body = "<h1>nothing to see</h1>";
        console.setPage("/", page);
      }
      if (tick == 4)
        world.bind(world.allocateAddress(64998), 80, late, true);
      churn->setTick(tick);
      crawler.refresh(
          [&](std::uint64_t id) { return churn->dirtyAt(id, tick); });
      EXPECT_EQ(crawler.lastRefreshStructural(), tick == 0 || tick == 4);

      const auto incremental = crawler.assemble();
      const auto fresh = scan::crawlStream(world, geo, freshOptions);
      ASSERT_EQ(scan::exportShardedIndex(incremental),
                scan::exportShardedIndex(fresh));
      EXPECT_EQ(scan::exportRecords(incremental.residentRecords(), 0),
                scan::exportRecords(fresh.residentRecords(), 0));
      std::vector<scan::BannerRecord> got;
      std::vector<scan::BannerRecord> want;
      for (std::uint32_t doc = 0; doc < fresh.docCount(); ++doc) {
        got.push_back(incremental.fetchRecord(doc));
        want.push_back(fresh.fetchRecord(doc));
      }
      EXPECT_EQ(scan::exportRecords(got, 0), scan::exportRecords(want, 0));
    }
  }
}

}  // namespace
}  // namespace urlf::simnet
