// Micro-benchmarks for the measurement-pipeline hot paths: banner search,
// fingerprint evaluation, category lookup, transport fetch, and world
// construction (google-benchmark).
#include <benchmark/benchmark.h>

#include "core/identifier.h"
#include "filters/category_db.h"
#include "measure/blockpage.h"
#include "measure/client.h"
#include "scenarios/paper_world.h"

namespace {

using namespace urlf;

scenarios::PaperWorld& sharedPaper() {
  static scenarios::PaperWorld paper;
  return paper;
}

void BM_PaperWorldBuild(benchmark::State& state) {
  for (auto _ : state) {
    scenarios::PaperWorld paper;
    benchmark::DoNotOptimize(&paper);
  }
}
BENCHMARK(BM_PaperWorldBuild)->Unit(benchmark::kMillisecond);

void BM_BannerCrawl(benchmark::State& state) {
  auto& paper = sharedPaper();
  const auto geo = paper.world().buildGeoDatabase();
  for (auto _ : state) {
    const auto index = scan::crawlStream(paper.world(), geo);
    benchmark::DoNotOptimize(index.docCount());
  }
}
BENCHMARK(BM_BannerCrawl)->Unit(benchmark::kMicrosecond);

void BM_BannerSearch(benchmark::State& state) {
  auto& paper = sharedPaper();
  const auto geo = paper.world().buildGeoDatabase();
  const auto index = scan::crawlStream(paper.world(), geo);
  for (auto _ : state) {
    auto hits = index.search({"netsweeper", std::nullopt});
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_BannerSearch);

void BM_FingerprintEvaluate(benchmark::State& state) {
  const auto engine = fingerprint::Engine::withBuiltinSignatures();
  fingerprint::Observation obs;
  obs.statusCode = 302;
  obs.headers.add("Location",
                  "http://10.0.0.1:15871/cgi-bin/blockpage.cgi?ws-session=42");
  obs.headers.add("Server", "Websense Content Gateway");
  obs.title = "Websense - blocked";
  for (auto _ : state) {
    auto matches = engine.evaluate(obs);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_FingerprintEvaluate);

void BM_CategoryDbLookup(benchmark::State& state) {
  filters::CategoryDatabase db;
  for (int i = 0; i < state.range(0); ++i)
    db.addHost("host" + std::to_string(i) + ".example.com", i % 40 + 1);
  const auto url = net::Url::parse("http://host7.example.com/page").value();
  for (auto _ : state) {
    auto categories = db.categorize(url);
    benchmark::DoNotOptimize(categories);
  }
}
BENCHMARK(BM_CategoryDbLookup)->Arg(100)->Arg(10000)->Arg(100000);

void BM_TransportFetchBlocked(benchmark::State& state) {
  auto& paper = sharedPaper();
  simnet::Transport transport(paper.world());
  const auto* vantage = paper.world().findVantage("field-etisalat");
  for (auto _ : state) {
    auto result = transport.fetchUrl(*vantage, "http://adultvideosite.com/");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TransportFetchBlocked);

void BM_BlockPageClassify(benchmark::State& state) {
  auto& paper = sharedPaper();
  simnet::Transport transport(paper.world());
  const auto* vantage = paper.world().findVantage("field-etisalat");
  const auto result =
      transport.fetchUrl(*vantage, "http://adultvideosite.com/");
  for (auto _ : state) {
    auto match = measure::classifyBlockPage(result);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_BlockPageClassify);

void BM_IdentifyAll(benchmark::State& state) {
  auto& paper = sharedPaper();
  const auto geo = paper.world().buildGeoDatabase();
  const auto whois = paper.world().buildAsnDatabase();
  const auto index = scan::crawlStream(paper.world(), geo);
  core::Identifier identifier(paper.world(), index,
                              fingerprint::Engine::withBuiltinSignatures(), geo,
                              whois);
  for (auto _ : state) {
    auto all = identifier.identifyAll();
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_IdentifyAll)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
