// Equivalence properties of the scan→identify pipeline against the linear
// scan in the test-only oracles library:
//  - ShardedBannerIndex::search/searchAll return exactly the oracle's result
//    sets over randomized worlds and randomized queries, including country
//    facets, mixed-case keywords, keywords spanning token boundaries, and
//    punctuation-only keywords — for the crawled (resident, one shard),
//    re-sharded (fromRecords at small shard targets, concatenated sources)
//    and imported (exportShardedIndex round trip, banners fetched back)
//    forms of one corpus;
//  - parallel crawl and parallel identifyAll are byte-identical to their
//    serial counterparts for the same seed;
//  - a patched PostingShard serializes to the bytes of a fresh build over
//    the same texts, and its one-pass candidate scan returns exactly the
//    tokens a per-token substring test finds.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "net/cctld.h"
#include "oracles/linear_scan.h"
#include "scan/serialize.h"
#include "scenarios/random_world.h"
#include "util/rng.h"
#include "util/strings.h"

namespace urlf::scan {
namespace {

using Oracle = oracles::LinearBannerScan;
using scenarios::RandomWorld;
using scenarios::RandomWorldConfig;

RandomWorldConfig mediumWorld() {
  RandomWorldConfig config;
  config.countries = 12;
  config.decoys = 24;
  config.contentSites = 12;
  return config;
}

/// Random keyword drawn from real banner text so it can straddle token
/// boundaries ("r\n<title>Net"), with random case flips.
std::string keywordFromBanner(util::Rng& rng, const Oracle& oracle) {
  const auto& records = oracle.records();
  const auto& text = records[rng.index(records.size())].searchableText();
  if (text.empty()) return "x";
  const std::size_t len = 1 + rng.index(18);
  const std::size_t start = rng.index(text.size());
  std::string keyword = text.substr(start, len);
  for (auto& c : keyword)
    if (rng.chance(0.5)) c = static_cast<char>(std::toupper(
        static_cast<unsigned char>(c)));
  return keyword;
}

std::vector<Query> randomQueries(util::Rng& rng, const Oracle& oracle,
                                 int count) {
  const std::vector<std::string> fixed = {
      "proxysg",       "cfru=",          "mcafee web gateway",
      "url blocked",   "netsweeper",     "webadmin",
      "webadmin/deny", "8080/webadmin/", "blockpage.cgi",
      "gateway websense",
      // pathological keywords: empty, punctuation-only, whitespace
      "", "=", "/", " ", "\r\n", "no-such-keyword-anywhere"};

  std::vector<Query> out;
  for (int i = 0; i < count; ++i) {
    Query query;
    if (rng.chance(0.4)) {
      query.keyword = fixed[rng.index(fixed.size())];
    } else {
      query.keyword = keywordFromBanner(rng, oracle);
    }
    const double facet = rng.uniform01();
    if (facet < 0.4) {
      // a country actually present in the index (random case)
      const auto& records = oracle.records();
      auto country = records[rng.index(records.size())].countryAlpha2;
      if (!country.empty() && rng.chance(0.5))
        country = util::toLower(country);
      query.countryAlpha2 = country;
    } else if (facet < 0.55) {
      query.countryAlpha2 = "ZZ";  // absent country
    }
    out.push_back(std::move(query));
  }
  return out;
}

/// A crawled world: the resident index and the oracle over its records.
struct Crawled {
  RandomWorld world;
  geo::GeoDatabase geo;
  ShardedBannerIndex index;
  Oracle oracle;

  explicit Crawled(std::uint64_t seed)
      : world(seed, mediumWorld()),
        geo(world.world().buildGeoDatabase()),
        index(crawlStream(world.world(), geo)),
        oracle(index.residentRecords()) {}
};

/// The §3.1 fan-out the Identifier issues: every product keyword alone and
/// crossed with every registry country.
std::vector<Query> fullFanOut() {
  std::vector<Query> queries;
  for (const auto product : filters::allProducts()) {
    for (const auto& keyword : core::Identifier::shodanKeywords(product)) {
      queries.push_back({keyword, std::nullopt});
      for (const auto& country : net::allCountries())
        queries.push_back({keyword, std::string(country.alpha2)});
    }
  }
  return queries;
}

TEST(ScanIndexProperty, CrawledIndexSearchMatchesOracleOnRandomWorlds) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    const Crawled crawled(seed);
    ASSERT_GT(crawled.index.docCount(), 0u);
    ASSERT_EQ(crawled.index.residentRecords().size(),
              crawled.index.docCount());

    util::Rng rng(seed * 1000 + 7);
    const auto queries = randomQueries(rng, crawled.oracle, 200);
    for (const auto& query : queries) {
      ASSERT_EQ(crawled.index.search(query), crawled.oracle.search(query))
          << "seed=" << seed << " keyword=\"" << query.keyword << "\" country="
          << query.countryAlpha2.value_or("(none)");
    }
  }
}

TEST(ScanIndexProperty, SearchAllMatchesOracleOnRandomQueries) {
  const Crawled crawled(77);
  util::Rng rng(404);
  const auto queries = randomQueries(rng, crawled.oracle, 300);
  EXPECT_EQ(crawled.index.searchAll(queries), crawled.oracle.searchAll(queries));
}

TEST(ScanIndexProperty, SearchAllMatchesOracleOnFullKeywordCountryFanOut) {
  const Crawled crawled(5150);
  const auto queries = fullFanOut();
  const auto indexed = crawled.index.searchAll(queries);
  EXPECT_EQ(indexed, crawled.oracle.searchAll(queries));
  EXPECT_GT(indexed.size(), 0u);
}

TEST(ScanIndexProperty, ParallelCrawlIsByteIdenticalToSerialCrawl) {
  RandomWorld worldA(913, mediumWorld());
  RandomWorld worldB(913, mediumWorld());
  const auto geoA = worldA.world().buildGeoDatabase();
  const auto geoB = worldB.world().buildGeoDatabase();

  StreamCrawlOptions serialOptions;
  serialOptions.threadLimit = 1;
  const auto serial = crawlStream(worldA.world(), geoA, serialOptions);
  const auto parallel = crawlStream(worldB.world(), geoB);

  EXPECT_EQ(exportRecords(serial.residentRecords(), 0),
            exportRecords(parallel.residentRecords(), 0));
  EXPECT_EQ(exportShardedIndex(serial), exportShardedIndex(parallel));
}

core::Identifier makeIdentifier(RandomWorld& world,
                                const ShardedBannerIndex& index,
                                std::size_t threads) {
  core::IdentifierConfig config;
  config.threads = threads;
  return core::Identifier(world.world(), index,
                          fingerprint::Engine::withBuiltinSignatures(),
                          world.world().buildGeoDatabase(),
                          world.world().buildAsnDatabase(), config);
}

TEST(ScanIndexProperty, ParallelIdentifyAllIsByteIdenticalToSerial) {
  Crawled crawled(2024);
  const auto serial =
      makeIdentifier(crawled.world, crawled.index, 1).identifyAll();
  const auto parallel =
      makeIdentifier(crawled.world, crawled.index, 0).identifyAll();
  EXPECT_EQ(core::toJson(serial).dump(2), core::toJson(parallel).dump(2));
}

TEST(ScanIndexProperty, ParallelIdentifyAllPassiveIsByteIdenticalToSerial) {
  Crawled crawled(2025);
  const auto serial =
      makeIdentifier(crawled.world, crawled.index, 1).identifyAllPassive();
  const auto parallel =
      makeIdentifier(crawled.world, crawled.index, 0).identifyAllPassive();
  EXPECT_EQ(core::toJson(serial).dump(2), core::toJson(parallel).dump(2));
}

TEST(ScanIndexProperty, ReshardedSearchMatchesOracle) {
  for (const std::uint64_t seed : {101u, 202u}) {
    const Crawled crawled(seed);

    // Small shard target so the corpus spans many shards.
    const auto sharded =
        ShardedBannerIndex::fromRecords(crawled.index.residentRecords(), 16);
    ASSERT_EQ(sharded.docCount(), crawled.oracle.size());
    ASSERT_GT(sharded.shardCount(), 1u);
    EXPECT_EQ(sharded.vocabularySize(), crawled.oracle.vocabularySize());
    EXPECT_EQ(crawled.index.vocabularySize(), crawled.oracle.vocabularySize());

    util::Rng rng(seed + 5);
    for (const auto& query : randomQueries(rng, crawled.oracle, 150)) {
      ASSERT_EQ(sharded.search(query), crawled.oracle.search(query))
          << "seed=" << seed << " keyword=\"" << query.keyword << "\"";
    }

    util::Rng rngAll(seed + 6);
    const auto queries = randomQueries(rngAll, crawled.oracle, 120);
    EXPECT_EQ(sharded.searchAll(queries), crawled.oracle.searchAll(queries));
  }
}

TEST(ScanIndexProperty, DeltaIdListRoundTripsRandomAscendingSequences) {
  util::Rng rng(8080);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint32_t> ids;
    std::uint32_t next = rng.index(1000);
    const int count = static_cast<int>(rng.index(200));
    for (int i = 0; i < count; ++i) {
      ids.push_back(next);
      next += 1 + static_cast<std::uint32_t>(rng.index(100000));
    }

    DeltaIdList list;
    for (const auto id : ids) list.append(id);
    ASSERT_EQ(list.count(), ids.size());

    std::vector<std::uint32_t> decoded;
    list.decodeInto(decoded);
    EXPECT_EQ(decoded, ids);

    // Raw-parts round trip (the import path).
    const auto rebuilt = DeltaIdList::fromRaw(list.count(), list.bytes());
    std::vector<std::uint32_t> redecoded;
    rebuilt.decodeInto(redecoded);
    EXPECT_EQ(redecoded, ids);
  }
  // Non-ascending appends are rejected.
  DeltaIdList list;
  list.append(5);
  EXPECT_THROW(list.append(5), std::invalid_argument);
  EXPECT_THROW(list.append(4), std::invalid_argument);
}

std::string shardBytes(const PostingShard& shard) {
  std::string out;
  shard.serializeTo(out);
  return out;
}

PostingShard buildShard(std::uint32_t docBase,
                        const std::vector<std::string>& texts) {
  PostingShard::Builder builder("cell", docBase);
  for (const auto& text : texts) builder.addDocument(text);
  return std::move(builder).finish();
}

TEST(ScanIndexProperty, PatchedShardEqualsAFreshBuild) {
  std::vector<std::string> texts = {"alpha beta gamma", "beta delta",
                                    "gamma epsilon zeta", "omega beta"};
  auto shard = buildShard(100, texts);

  // "delta" and "omega" lose their only documents, "kappa" and "newtoken"
  // are new, and doc 101 becomes empty.
  const std::vector<std::uint32_t> docs = {100, 101, 103};
  const std::vector<std::string> patch = {"alpha alpha kappa", "",
                                          "beta newtoken"};
  shard.replaceDocuments(docs, patch);
  for (std::size_t i = 0; i < docs.size(); ++i) texts[docs[i] - 100] = patch[i];
  const auto fresh = buildShard(100, texts);
  EXPECT_EQ(shardBytes(shard), shardBytes(fresh));
  std::vector<std::string> vocabulary;
  for (std::size_t k = 0; k < shard.tokenCount(); ++k)
    vocabulary.emplace_back(shard.token(k));
  EXPECT_EQ(vocabulary,
            (std::vector<std::string>{"alpha", "beta", "epsilon", "gamma",
                                      "kappa", "newtoken", "zeta"}));
  std::vector<std::uint32_t> beta;
  shard.appendCandidates("beta", beta);
  EXPECT_EQ(beta, (std::vector<std::uint32_t>{103}));

  // Random patches over a small vocabulary, round after round.
  util::Rng rng(4711);
  const std::vector<std::string> words = {"a",   "b",    "ab",  "ba", "cfru",
                                          "web", "admin", "x1", "9",  "zz"};
  const auto randomText = [&] {
    std::string text;
    const auto count = rng.index(6);
    for (std::size_t w = 0; w < count; ++w)
      text += words[rng.index(words.size())] + (rng.index(2) ? " " : "/");
    return text;
  };
  std::vector<std::string> corpus(40);
  for (auto& text : corpus) text = randomText();
  auto patched = buildShard(7, corpus);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::uint32_t> ids;
    std::vector<std::string> newTexts;
    for (std::uint32_t d = 0; d < corpus.size(); ++d) {
      if (rng.index(5) != 0) continue;
      ids.push_back(7 + d);
      newTexts.push_back(randomText());
      corpus[d] = newTexts.back();
    }
    patched.replaceDocuments(ids, newTexts);
    ASSERT_EQ(shardBytes(patched), shardBytes(buildShard(7, corpus)))
        << "round " << round;
  }

  const std::vector<std::string> one = {"x"};
  EXPECT_THROW(patched.replaceDocuments(std::vector<std::uint32_t>{6}, one),
               std::invalid_argument);
  EXPECT_THROW(patched.replaceDocuments(std::vector<std::uint32_t>{47}, one),
               std::invalid_argument);
  EXPECT_THROW(patched.replaceDocuments(std::vector<std::uint32_t>{8, 8},
                                        std::vector<std::string>{"x", "y"}),
               std::invalid_argument);
  EXPECT_THROW(patched.replaceDocuments(std::vector<std::uint32_t>{8, 9}, one),
               std::invalid_argument);
}

TEST(ScanIndexProperty, CandidateScanRespectsTokenBoundaries) {
  // The arena holds "abcd": "bc" occurs in it only across two tokens.
  const auto shard = buildShard(0, {"ab", "cd", "ab cd"});
  const auto candidates = [&](std::string_view needle) {
    std::vector<std::uint32_t> out;
    shard.appendCandidates(needle, out);
    return out;
  };
  EXPECT_TRUE(candidates("bc").empty());
  EXPECT_TRUE(candidates("abcd").empty());
  EXPECT_EQ(candidates("cd"), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(candidates(""), (std::vector<std::uint32_t>{0, 2, 1, 2}));

  // Against a per-token substring test, on random vocabularies and needles.
  util::Rng rng(99);
  const std::string alphabet = "abc";
  const auto randomWord = [&](std::size_t maxLength) {
    std::string word;
    const auto length = rng.index(maxLength + 1);
    for (std::size_t i = 0; i < length; ++i)
      word += alphabet[rng.index(alphabet.size())];
    return word;
  };
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> texts(12);
    for (auto& text : texts)
      for (int w = 0; w < 4; ++w) text += randomWord(5) + " ";
    const auto random = buildShard(0, texts);
    for (int n = 0; n < 10; ++n) {
      const auto needle = randomWord(3);
      std::vector<std::uint32_t> want;
      for (std::size_t k = 0; k < random.tokenCount(); ++k)
        if (random.token(k).find(needle) != std::string_view::npos)
          random.appendTokenPostings(k, want);
      std::vector<std::uint32_t> got;
      random.appendCandidates(needle, got);
      ASSERT_EQ(got, want) << "needle '" << needle << "' round " << round;
    }
  }
}

TEST(ScanIndexProperty, ShardedIndexSurvivesExportImportRoundTrip) {
  const Crawled crawled(606);
  const auto sharded =
      ShardedBannerIndex::fromRecords(crawled.index.residentRecords(), 16);

  const auto blob = exportShardedIndex(sharded);
  auto imported = importShardedIndex(blob);
  ASSERT_TRUE(imported.has_value());
  EXPECT_EQ(imported->docCount(), sharded.docCount());
  EXPECT_EQ(imported->shardCount(), sharded.shardCount());
  EXPECT_EQ(imported->vocabularySize(), sharded.vocabularySize());
  EXPECT_FALSE(imported->hasRecordFetcher());
  EXPECT_TRUE(imported->residentRecords().empty());
  EXPECT_EQ(exportShardedIndex(*imported), blob);

  // Token-only keywords resolve without a record fetcher; results agree
  // with the resident original.
  for (const std::string keyword :
       {"proxysg", "netsweeper", "webadmin", "apache", "html"}) {
    for (const auto country :
         {std::optional<std::string>{}, std::optional<std::string>{"SA"}}) {
      const Query query{keyword, country};
      EXPECT_EQ(imported->search(query), sharded.search(query))
          << "keyword=" << keyword;
    }
  }

  // With the banners fetched back, the imported index answers every query
  // as the oracle does.
  imported->setRecordFetcher([&crawled](std::uint32_t doc) {
    return crawled.oracle.records()[doc];
  });
  util::Rng rng(607);
  for (const auto& query : randomQueries(rng, crawled.oracle, 100)) {
    ASSERT_EQ(imported->search(query), crawled.oracle.search(query))
        << "keyword=\"" << query.keyword << "\"";
  }
  const auto queries = fullFanOut();
  EXPECT_EQ(imported->searchAll(queries), crawled.oracle.searchAll(queries));

  // Corruption is detected: flip one byte in the middle.
  auto corrupted = blob;
  corrupted[corrupted.size() / 2] =
      static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x20);
  EXPECT_FALSE(importShardedIndex(corrupted).has_value());
  // Truncation is detected.
  EXPECT_FALSE(
      importShardedIndex(std::string_view(blob).substr(0, blob.size() / 2))
          .has_value());
}

TEST(ScanIndexProperty, ShardedIndexHandlesEmptyAndSingleDocShards) {
  // Empty corpus: zero docs, queries return nothing, round trip holds.
  const auto empty = ShardedBannerIndex::fromRecords({});
  EXPECT_EQ(empty.docCount(), 0u);
  EXPECT_TRUE(empty.search({"proxysg", std::nullopt}).empty());
  EXPECT_TRUE(empty.searchAll({{"proxysg", std::nullopt}}).empty());
  const auto emptyImported = importShardedIndex(exportShardedIndex(empty));
  ASSERT_TRUE(emptyImported.has_value());
  EXPECT_EQ(emptyImported->docCount(), 0u);

  // One document per shard — the degenerate sharding — still matches the
  // oracle on every query.
  const Crawled crawled(707);
  const auto singletons =
      ShardedBannerIndex::fromRecords(crawled.index.residentRecords(), 1);
  ASSERT_EQ(singletons.shardCount(), crawled.oracle.size());

  util::Rng rng(11);
  for (const auto& query : randomQueries(rng, crawled.oracle, 60)) {
    EXPECT_EQ(singletons.search(query), crawled.oracle.search(query))
        << "keyword=\"" << query.keyword << "\"";
  }
}

TEST(ScanIndexProperty, IdentifyAllAgreesAcrossShardingsAndImport) {
  Crawled crawled(909);
  const auto sharded =
      ShardedBannerIndex::fromRecords(crawled.index.residentRecords(), 16);
  auto imported = importShardedIndex(exportShardedIndex(sharded));
  ASSERT_TRUE(imported.has_value());
  imported->setRecordFetcher([&crawled](std::uint32_t doc) {
    return crawled.oracle.records()[doc];
  });

  const auto viaCrawl = makeIdentifier(crawled.world, crawled.index, 0);
  const auto viaSharded = makeIdentifier(crawled.world, sharded, 0);
  const auto viaImported = makeIdentifier(crawled.world, *imported, 0);

  const auto active = core::toJson(viaCrawl.identifyAll()).dump(2);
  EXPECT_EQ(active, core::toJson(viaSharded.identifyAll()).dump(2));
  EXPECT_EQ(active, core::toJson(viaImported.identifyAll()).dump(2));
  const auto passive = core::toJson(viaCrawl.identifyAllPassive()).dump(2);
  EXPECT_EQ(passive, core::toJson(viaSharded.identifyAllPassive()).dump(2));
  EXPECT_EQ(passive, core::toJson(viaImported.identifyAllPassive()).dump(2));
}

TEST(ScanIndexProperty, ConcatenatedRecordsMatchTheCrawl) {
  const Crawled crawled(31337);

  // Rebuild the same corpus from two record sources, concatenated; queries
  // must agree with the crawl-built index and the oracle.
  const auto& records = crawled.index.residentRecords();
  const std::size_t half = records.size() / 2;
  std::vector<BannerRecord> merged(
      records.begin(), records.begin() + static_cast<std::ptrdiff_t>(half));
  const std::vector<BannerRecord> rest(
      records.begin() + static_cast<std::ptrdiff_t>(half), records.end());
  merged.insert(merged.end(), rest.begin(), rest.end());
  const auto index = ShardedBannerIndex::fromRecords(std::move(merged));
  ASSERT_EQ(index.docCount(), crawled.index.docCount());

  util::Rng rng(99);
  for (const auto& query : randomQueries(rng, crawled.oracle, 100)) {
    const auto hits = index.search(query);
    EXPECT_EQ(hits, crawled.index.search(query));
    EXPECT_EQ(hits, crawled.oracle.search(query));
  }
}

}  // namespace
}  // namespace urlf::scan
