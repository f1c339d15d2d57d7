// urlfsim — command-line driver for the reproduction.
//
//   urlfsim identify      [--json] [--seed N] [evasion flags]
//   urlfsim confirm       [--case N | --all] [--json] [--seed N] [flags]
//   urlfsim characterize  --vantage NAME [--runs N] [--json] [--seed N]
//   urlfsim probe         [--json] [--seed N]          (§4.4 category probe)
//   urlfsim scout         --vantage NAME [--product P] [--json]
//   urlfsim proxy-detect  [--json] [--seed N]
//   urlfsim export-scan   [--seed N]                   (banner index JSON)
//
// Evasion flags: --hide-surfaces --strip-branding --disregard-submitter
// Fault flags:   --faults R (per-process injected fault rate)
//                --retries N (transport retry budget w/ simulated backoff)
// Products: bluecoat | smartfilter | netsweeper | websense
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/monitor.h"
#include "core/profiler.h"
#include "core/proxy_detect.h"
#include "core/serialize.h"
#include "measure/journal.h"
#include "measure/mechanism.h"
#include "measure/mining.h"
#include "measure/session.h"
#include "scan/serialize.h"
#include "scenarios/campaign.h"
#include "scenarios/monitor.h"
#include "scenarios/paper_world.h"
#include "serve/loop.h"
#include "serve/server.h"

namespace {

using namespace urlf;

struct Options {
  std::string command;
  std::uint64_t seed = scenarios::kPaperSeed;
  bool json = false;
  bool all = false;
  std::optional<int> caseIndex;
  std::optional<std::string> vantage;
  filters::ProductKind product = filters::ProductKind::kSmartFilter;
  int runs = 1;
  int retries = 1;
  int trials = 3;  ///< mechanisms: evidence budget per URL
  int quorum = 1;  ///< campaign: cross-vantage quorum size
  bool hedge = false;  ///< campaign: pacing + deadlines + slow-drip hedging
  bool viaPortal = false;
  scenarios::PaperWorldOptions worldOptions;

  // campaign: write-ahead journal, resume, and injected persistent failures.
  std::optional<std::string> journalPath;
  bool resume = false;
  std::optional<int> breakerThreshold;
  scenarios::OutageSpec outages;

  // monitor: longitudinal re-scan/re-test campaign.
  std::uint64_t monitorHosts = 20000;
  int monitorTicks = 6;
  std::int64_t tickHours = 720;
  scenarios::MonitorMode monitorMode = scenarios::MonitorMode::kIncremental;
  std::size_t threads = 0;
  scenarios::MonitorChurn monitorChurn;
  std::optional<std::string> checkpointPath;

  /// Transport options derived from --retries (applied to every fetch the
  /// selected command performs).
  [[nodiscard]] simnet::FetchOptions fetchOptions() const {
    simnet::FetchOptions fetch;
    fetch.retry.maxAttempts = retries;
    return fetch;
  }
};

std::optional<filters::ProductKind> parseProduct(const std::string& name) {
  if (name == "bluecoat") return filters::ProductKind::kBlueCoat;
  if (name == "smartfilter") return filters::ProductKind::kSmartFilter;
  if (name == "netsweeper") return filters::ProductKind::kNetsweeper;
  if (name == "websense") return filters::ProductKind::kWebsense;
  return std::nullopt;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: urlfsim <identify|confirm|characterize|probe|scout|proxy-detect"
      "|profile|record|export-scan|campaign|monitor|serve|mechanisms>"
      " [options]\n"
      "       urlfsim diff <baseline.json> <current.json>\n"
      "       urlfsim reanalyze <session.json> [--mine]\n"
      "  --seed N            world seed (default %llu)\n"
      "  --json              machine-readable output\n"
      "  --case N            confirm: run only Table 3 row N (0-9)\n"
      "  --all               confirm: run all rows (default)\n"
      "  --vantage NAME      characterize/scout: field vantage point\n"
      "  --product P         scout: bluecoat|smartfilter|netsweeper|websense\n"
      "  --runs N            characterize: passes per URL\n"
      "  --portal            confirm: submit via the vendor Web portal\n"
      "  --faults R          inject transient faults at rate R per process\n"
      "  --interference R    adversarial interference (tarpits, flaky\n"
      "                      enforcement, blockpage mimicry) at rate R\n"
      "  --quorum N          campaign: k-of-n cross-vantage quorum on the\n"
      "                      Table 4 characterizations (default 1 = off)\n"
      "  --hedge             campaign: arm tarpit deadlines, slow-drip\n"
      "                      hedging, and pacing on the quorum path\n"
      "  --mechanisms        attach packet-level blocking (DNS poisoning,\n"
      "                      RST injection, SNI filtering, null-routing)\n"
      "  --trials N          mechanisms: evidence budget per URL (default 3)\n"
      "  --retries N         transport retry budget (simulated backoff)\n"
      "  --hide-surfaces --strip-branding --disregard-submitter\n"
      "  --journal PATH      campaign: write-ahead journal file\n"
      "  --resume            campaign: resume from --journal (config is\n"
      "                      adopted from the journal header)\n"
      "                      monitor: resume from --checkpoint\n"
      "  --hosts N           monitor: streamed background hosts\n"
      "  --ticks N           monitor: churn ticks after the baseline\n"
      "  --tick-hours N      monitor: simulated hours per tick\n"
      "  --mode M            monitor: full|incremental pipeline\n"
      "  --threads N         monitor: worker threads (0 = auto)\n"
      "  --rebrand R         monitor: per-host per-tick rebrand rate\n"
      "  --park R            monitor: per-host per-tick parking rate\n"
      "  --db-churn N        monitor: vendor DB mutations per tick\n"
      "  --checkpoint PATH   monitor: snapshot after every tick\n"
      "  --kill V@DATE       campaign: vantage V dies permanently on DATE\n"
      "  --stop-box B@DATE   campaign: middlebox B silently stops on DATE\n"
      "  --rollback F..U@T   campaign: category DBs revert to date T during\n"
      "                      the window [F, U)\n"
      "  --breaker N         campaign: open circuit after N hard failures\n",
      static_cast<unsigned long long>(scenarios::kPaperSeed));
  return 2;
}

/// Split "name@YYYY-MM-DD" into its two halves.
std::optional<std::pair<std::string, util::CivilDate>> parseNameAtDate(
    const std::string& text) {
  const auto at = text.rfind('@');
  if (at == std::string::npos || at == 0) return std::nullopt;
  const auto date = scenarios::parseCivilDate(text.substr(at + 1));
  if (!date) return std::nullopt;
  return std::make_pair(text.substr(0, at), *date);
}

std::optional<Options> parseArgs(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options options;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--journal") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.journalPath = *value;
    } else if (arg == "--kill") {
      const auto value = next();
      if (!value) return std::nullopt;
      const auto parsed = parseNameAtDate(*value);
      if (!parsed) return std::nullopt;
      options.outages.vantageDeaths.push_back({parsed->first, parsed->second});
    } else if (arg == "--stop-box") {
      const auto value = next();
      if (!value) return std::nullopt;
      const auto parsed = parseNameAtDate(*value);
      if (!parsed) return std::nullopt;
      options.outages.middleboxStops.push_back(
          {parsed->first, parsed->second});
    } else if (arg == "--rollback") {
      // FROM..UNTIL@TO, e.g. 2013-04-10..2013-04-25@2013-01-01
      const auto value = next();
      if (!value) return std::nullopt;
      const auto dots = value->find("..");
      const auto at = value->rfind('@');
      if (dots == std::string::npos || at == std::string::npos || at < dots)
        return std::nullopt;
      const auto from = scenarios::parseCivilDate(value->substr(0, dots));
      const auto until =
          scenarios::parseCivilDate(value->substr(dots + 2, at - dots - 2));
      const auto to = scenarios::parseCivilDate(value->substr(at + 1));
      if (!from || !until || !to) return std::nullopt;
      options.outages.rollbacks.push_back({*from, *until, *to});
    } else if (arg == "--breaker") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.breakerThreshold = std::stoi(*value);
    } else if (arg == "--hosts") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.monitorHosts = std::stoull(*value);
    } else if (arg == "--ticks") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.monitorTicks = std::stoi(*value);
    } else if (arg == "--tick-hours") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.tickHours = std::stoll(*value);
    } else if (arg == "--mode") {
      const auto value = next();
      if (!value) return std::nullopt;
      if (*value == "full")
        options.monitorMode = scenarios::MonitorMode::kFull;
      else if (*value == "incremental")
        options.monitorMode = scenarios::MonitorMode::kIncremental;
      else
        return std::nullopt;
    } else if (arg == "--threads") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.threads = static_cast<std::size_t>(std::stoul(*value));
    } else if (arg == "--rebrand") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.monitorChurn.rebrandRate = std::stod(*value);
    } else if (arg == "--park") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.monitorChurn.parkRate = std::stod(*value);
    } else if (arg == "--db-churn") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.monitorChurn.dbMutationsPerTick = std::stoi(*value);
    } else if (arg == "--checkpoint") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.checkpointPath = *value;
    } else if (arg == "--all") {
      options.all = true;
    } else if (arg == "--portal") {
      options.viaPortal = true;
    } else if (arg == "--mechanisms") {
      options.worldOptions.packetMechanisms = true;
    } else if (arg == "--trials") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.trials = std::stoi(*value);
    } else if (arg == "--hide-surfaces") {
      options.worldOptions.hideExternalSurfaces = true;
    } else if (arg == "--strip-branding") {
      options.worldOptions.stripBranding = true;
    } else if (arg == "--disregard-submitter") {
      options.worldOptions.disregardSubmitter = true;
    } else if (arg == "--seed") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.seed = std::stoull(*value);
    } else if (arg == "--case") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.caseIndex = std::stoi(*value);
    } else if (arg == "--runs") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.runs = std::stoi(*value);
    } else if (arg == "--faults") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.worldOptions.faultRate = std::stod(*value);
    } else if (arg == "--interference") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.worldOptions.interferenceRate = std::stod(*value);
    } else if (arg == "--quorum") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.quorum = std::stoi(*value);
    } else if (arg == "--hedge") {
      options.hedge = true;
    } else if (arg == "--retries") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.retries = std::stoi(*value);
    } else if (arg == "--vantage") {
      const auto value = next();
      if (!value) return std::nullopt;
      options.vantage = *value;
    } else if (arg == "--product") {
      const auto value = next();
      if (!value) return std::nullopt;
      const auto product = parseProduct(*value);
      if (!product) return std::nullopt;
      options.product = *product;
    } else {
      return std::nullopt;
    }
  }
  return options;
}

int runIdentify(const Options& options) {
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  auto& world = paper.world();
  const auto geo = world.buildGeoDatabase(options.worldOptions.geoErrorRate);
  const auto whois = world.buildAsnDatabase();
  const auto index = scan::crawlStream(world, geo);
  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, whois);
  const auto all = identifier.identifyAll();

  if (options.json) {
    std::printf("%s\n", core::toJson(all).dump(2).c_str());
    return 0;
  }
  for (const auto& [product, installations] : all) {
    std::printf("%s: %zu installations\n",
                std::string(filters::toString(product)).c_str(),
                installations.size());
    for (const auto& inst : installations)
      std::printf("  %s:%u  %s  AS%u (%s)\n", inst.ip.toString().c_str(),
                  inst.port, inst.countryAlpha2.c_str(),
                  inst.asn ? inst.asn->asn : 0,
                  inst.asn ? inst.asn->description.c_str() : "?");
  }
  return 0;
}

int runConfirm(const Options& options) {
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());

  report::Json results = report::Json::array();
  const auto& studies = paper.caseStudies();
  for (std::size_t i = 0; i < studies.size(); ++i) {
    if (options.caseIndex && static_cast<std::size_t>(*options.caseIndex) != i)
      continue;
    scenarios::advanceClockTo(paper.world(), studies[i].startDate);
    auto runConfig = studies[i].config;
    runConfig.submitViaHttpPortal = options.viaPortal;
    runConfig.fetchOptions = options.fetchOptions();
    const auto result = confirmer.run(runConfig);
    if (options.json) {
      results.push(core::toJson(result));
    } else {
      std::printf("[%zu] %-18s %-16s %s  %s blocked -> %s\n", i,
                  std::string(filters::toString(result.config.product)).c_str(),
                  result.config.ispName.c_str(), result.dateLabel.c_str(),
                  result.blockedRatio().c_str(),
                  result.confirmed ? "CONFIRMED" : "not confirmed");
    }
  }
  if (options.json) std::printf("%s\n", results.dump(2).c_str());
  return 0;
}

int runCharacterize(const Options& options) {
  if (!options.vantage) return usage();
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  const auto* vantage = paper.world().findVantage(*options.vantage);
  if (vantage == nullptr) {
    std::fprintf(stderr, "unknown vantage: %s\n", options.vantage->c_str());
    return 1;
  }
  core::Characterizer characterizer(paper.world());
  const auto result = characterizer.characterize(
      *options.vantage, "lab-toronto", paper.globalList(),
      paper.localList(vantage->countryAlpha2), options.runs,
      options.fetchOptions());

  if (options.json) {
    std::printf("%s\n", core::toJson(result).dump(2).c_str());
    return 0;
  }
  std::printf("%s (%s), attributed: %s\n", result.ispName.c_str(),
              result.countryAlpha2.c_str(),
              result.attributedProduct
                  ? std::string(filters::toString(*result.attributedProduct))
                        .c_str()
                  : "(none)");
  for (const auto& [category, cell] : result.cells)
    std::printf("  %-34s %d/%d blocked\n", category.c_str(), cell.blocked,
                cell.tested);
  return 0;
}

int runProbe(const Options& options) {
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  scenarios::advanceClockTo(paper.world(), {2013, 1, 14});
  core::Confirmer confirmer(paper.world(), paper.hosting(), paper.vendorSet());
  const auto probe = confirmer.probeNetsweeperCategories(
      "field-yemennet", "lab-toronto", options.fetchOptions());

  if (options.json) {
    report::Json out = report::Json::array();
    for (const auto& result : probe) {
      report::Json item = report::Json::object();
      item["catno"] = report::Json::number(std::int64_t{result.category});
      item["category"] = report::Json::string(result.categoryName);
      item["blocked"] = report::Json::boolean(result.blocked);
      out.push(std::move(item));
    }
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }
  for (const auto& result : probe)
    if (result.blocked)
      std::printf("blocked: catno %d (%s)\n", result.category,
                  result.categoryName.c_str());
  return 0;
}

int runScout(const Options& options) {
  if (!options.vantage) return usage();
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  core::CategoryScout scout(paper.world());
  const auto uses = scout.scout(*options.vantage, "lab-toronto",
                                paper.referenceSites(options.product));
  if (options.json) {
    report::Json out = report::Json::array();
    for (const auto& use : uses) out.push(core::toJson(use));
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }
  for (const auto& use : uses)
    std::printf("%-20s %d/%d blocked -> %s\n", use.categoryName.c_str(),
                use.blocked, use.tested,
                use.inUse() ? "ENFORCED" : "not enforced");
  return 0;
}

int runProxyDetect(const Options& options) {
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  core::ProxyDetector detector(paper.world());
  report::Json out = report::Json::object();
  for (const auto& vantage : paper.world().vantages()) {
    if (vantage->isLab()) continue;
    const auto evidence =
        detector.detect(vantage->name, "lab-toronto", paper.echoUrl());
    if (options.json) {
      out[vantage->name] = core::toJson(evidence);
    } else {
      std::printf("%-18s %s%s\n", vantage->name.c_str(),
                  evidence.proxyDetected() ? "proxy detected" : "clean path",
                  evidence.productHint ? (" [" + *evidence.productHint + "]")
                                             .c_str()
                                       : "");
    }
  }
  if (options.json) std::printf("%s\n", out.dump(2).c_str());
  return 0;
}

int runDiff(const Options& options, const std::string& baselinePath,
            const std::string& currentPath) {
  auto readFile = [](const std::string& path) -> std::optional<std::string> {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return std::nullopt;
    std::string out;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0)
      out.append(buffer, n);
    std::fclose(file);
    return out;
  };

  const auto baselineText = readFile(baselinePath);
  const auto currentText = readFile(currentPath);
  if (!baselineText || !currentText) {
    std::fprintf(stderr, "diff: cannot read scan files\n");
    return 1;
  }
  auto baselineRecords = scan::importRecords(*baselineText);
  auto currentRecords = scan::importRecords(*currentText);
  if (!baselineRecords || !currentRecords) {
    std::fprintf(stderr, "diff: malformed scan data\n");
    return 1;
  }

  // Offline analysis: the world only supplies geo/whois context; all
  // validation is passive (stored banners, no live probes).
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  const auto geo = paper.world().buildGeoDatabase();
  const auto whois = paper.world().buildAsnDatabase();
  const auto engine = fingerprint::Engine::withBuiltinSignatures();

  const auto baselineIndex =
      scan::ShardedBannerIndex::fromRecords(std::move(*baselineRecords));
  const auto currentIndex =
      scan::ShardedBannerIndex::fromRecords(std::move(*currentRecords));
  core::Identifier fromBaseline(paper.world(), baselineIndex, engine, geo,
                                whois);
  core::Identifier fromCurrent(paper.world(), currentIndex, engine, geo,
                               whois);
  // Keep both runs alive: the diff's persisted/relocated entries are
  // pointers into them.
  const auto baselineRun = fromBaseline.identifyAllPassive();
  const auto currentRun = fromCurrent.identifyAllPassive();
  const auto diffs = core::diffAll(baselineRun, currentRun);

  for (const auto& [product, diff] : diffs) {
    if (diff.empty()) continue;
    std::printf("%s:\n", std::string(filters::toString(product)).c_str());
    for (const auto& inst : diff.appeared)
      std::printf("  + appeared  %s (%s)\n", inst.ip.toString().c_str(),
                  inst.countryAlpha2.c_str());
    for (const auto& inst : diff.vanished)
      std::printf("  - vanished  %s (%s)\n", inst.ip.toString().c_str(),
                  inst.countryAlpha2.c_str());
    for (const auto& [before, after] : diff.relocated)
      std::printf("  ~ relocated %s (%s -> %s)\n",
                  after->ip.toString().c_str(), before->countryAlpha2.c_str(),
                  after->countryAlpha2.c_str());
  }
  return 0;
}

std::optional<std::string> readWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string out;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0)
    out.append(buffer, n);
  std::fclose(file);
  return out;
}

int runRecord(const Options& options) {
  // Record a full measurement session (global + local lists, full wire
  // traces) from a field vantage — the collect-first half of §5.
  if (!options.vantage) return usage();
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  auto& world = paper.world();
  const auto* vantage = world.findVantage(*options.vantage);
  if (vantage == nullptr) {
    std::fprintf(stderr, "unknown vantage: %s\n", options.vantage->c_str());
    return 1;
  }
  measure::Client client(world, *vantage, *world.findVantage("lab-toronto"),
                         options.fetchOptions());
  std::vector<std::string> urls = paper.globalList().urls();
  for (const auto& url : paper.localList(vantage->countryAlpha2).urls())
    urls.push_back(url);
  const auto session = client.testList(urls);
  std::printf("%s\n", measure::exportSession(session, 2).c_str());
  return 0;
}

int runReanalyze(const std::string& path, bool mine) {
  // The analyze-later half of §5: reload a recorded session, re-classify
  // with the current pattern library, optionally mine pattern candidates
  // from the blocked traces.
  const auto text = readWholeFile(path);
  if (!text) {
    std::fprintf(stderr, "reanalyze: cannot read %s\n", path.c_str());
    return 1;
  }
  auto session = measure::importSession(*text);
  if (!session) {
    std::fprintf(stderr, "reanalyze: malformed session\n");
    return 1;
  }
  const auto reclassified = measure::reclassify(
      std::move(*session), measure::builtinBlockPagePatterns());

  std::map<std::string, int> verdictCounts;
  std::map<filters::ProductKind, int> productCounts;
  for (const auto& result : reclassified) {
    ++verdictCounts[std::string(measure::toString(result.verdict))];
    if (result.blockPage) ++productCounts[result.blockPage->product];
  }
  for (const auto& [verdict, count] : verdictCounts)
    std::printf("%-14s %d\n", verdict.c_str(), count);
  for (const auto& [product, count] : productCounts)
    std::printf("attributed to %s: %d\n",
                std::string(filters::toString(product)).c_str(), count);

  if (mine) {
    for (const auto& [product, count] : productCounts) {
      const auto pattern =
          measure::minePatternFromResults(product, reclassified);
      if (pattern)
        std::printf("mined candidate for %s: /%s/\n",
                    std::string(filters::toString(product)).c_str(),
                    pattern->regex.substr(0, 96).c_str());
    }
  }
  return 0;
}

int runProfile(const Options& options) {
  if (!options.vantage) return usage();
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  auto& world = paper.world();
  const auto* vantage = world.findVantage(*options.vantage);
  if (vantage == nullptr) {
    std::fprintf(stderr, "unknown vantage: %s\n", options.vantage->c_str());
    return 1;
  }

  const auto geo = world.buildGeoDatabase();
  const auto index = scan::crawlStream(world, geo);

  core::ProfilerSources sources;
  sources.index = &index;
  sources.geo = geo;
  sources.whois = world.buildAsnDatabase();
  for (const auto product : filters::allProducts())
    sources.referenceSites[product] = paper.referenceSites(product);
  sources.globalList = &paper.globalList();
  sources.localList = &paper.localList(vantage->countryAlpha2);
  sources.echoUrl = paper.echoUrl();
  sources.characterizationRuns = options.runs;
  sources.fetchOptions = options.fetchOptions();

  const auto profile =
      core::profileNetwork(world, *options.vantage, "lab-toronto", sources);

  if (options.json) {
    std::printf("%s\n", profile.toJson().dump(2).c_str());
    return 0;
  }
  std::printf("network profile: %s (%s)\n", profile.ispName.c_str(),
              profile.countryAlpha2.c_str());
  std::printf("installations geolocated in-country: %zu\n",
              profile.installationsInCountry.size());
  for (const auto& inst : profile.installationsInCountry)
    std::printf("  %s at %s\n",
                std::string(filters::toString(inst.product)).c_str(),
                inst.ip.toString().c_str());
  if (profile.proxyEvidence)
    std::printf("transparent proxy on path: %s%s\n",
                profile.proxyEvidence->proxyDetected() ? "yes" : "no",
                profile.proxyEvidence->productHint
                    ? (" (" + *profile.proxyEvidence->productHint + ")")
                          .c_str()
                    : "");
  for (const auto& [product, uses] : profile.categoryUse) {
    for (const auto& use : uses)
      if (use.inUse())
        std::printf("enforces %s category \"%s\"\n",
                    std::string(filters::toString(product)).c_str(),
                    use.categoryName.c_str());
  }
  std::printf("censored ONI categories:");
  for (const auto& [category, cell] : profile.characterization.cells)
    if (cell.blocked > 0) std::printf(" [%s]", category.c_str());
  std::printf("\n");
  return 0;
}

int runMechanisms(const Options& options) {
  // Demo of the §4.8 mechanism classifier: build the paper world with the
  // packet-level mechanisms attached and classify each country's local list
  // from its field vantage.
  auto worldOptions = options.worldOptions;
  worldOptions.packetMechanisms = true;
  scenarios::PaperWorld paper(options.seed, worldOptions);
  auto& world = paper.world();

  measure::MechanismOptions mechanismOptions;
  mechanismOptions.trialBudget = options.trials;
  mechanismOptions.fetchOptions = options.fetchOptions();

  report::Json all = report::Json::array();
  const std::pair<const char*, const char*> vantages[] = {
      {"field-yemennet", "YE"},
      {"field-ooredoo", "QA"},
      {"field-du", "AE"},
      {"field-etisalat", "AE"},
  };
  for (const auto& [vantageName, alpha2] : vantages) {
    if (options.vantage && *options.vantage != vantageName) continue;
    const auto* field = world.findVantage(vantageName);
    const auto* lab = world.findVantage("lab-toronto");
    measure::MechanismClassifier classifier(world, *field, *lab,
                                            mechanismOptions);
    std::vector<std::string> urls;
    for (const auto& entry : paper.localList(alpha2).entries)
      urls.push_back(entry.url);
    const auto verdicts = classifier.classifyList(urls);
    if (!options.json)
      std::printf("%s (budget %d):\n", vantageName, options.trials);
    for (const auto& verdict : verdicts) {
      if (options.json) {
        report::Json row = measure::toJson(verdict);
        row["vantage"] = report::Json::string(vantageName);
        all.push(std::move(row));
      } else {
        std::printf("  %-34s %-16s conf %.2f trials %d%s\n",
                    verdict.url.c_str(),
                    std::string(toString(verdict.mechanism)).c_str(),
                    verdict.confidence, verdict.trials,
                    verdict.residualObserved ? "  [residual]"
                    : verdict.esniBypassed   ? "  [esni-open]"
                                             : "");
      }
    }
  }
  if (options.json) std::printf("%s\n", all.dump(2).c_str());
  return 0;
}

int runCampaign(const Options& options) {
  // Full paper campaign (Table 3 + §4.4 probe + Table 4), optionally
  // journaled for crash tolerance. On --resume, every configuration knob is
  // adopted from the journal header: the journal is self-contained, and the
  // command line only supplies the file.
  scenarios::CampaignOptions campaign;
  std::optional<measure::CampaignJournal> journal;

  if (options.resume) {
    if (!options.journalPath) {
      std::fprintf(stderr, "urlfsim: --resume requires --journal PATH\n");
      return 1;
    }
    auto opened = measure::CampaignJournal::open(*options.journalPath);
    if (!opened) {
      std::fprintf(stderr, "urlfsim: %s\n", opened.error().c_str());
      return 1;
    }
    auto adopted =
        scenarios::CampaignOptions::fromHeaderJson(opened->header());
    if (!adopted) {
      std::fprintf(stderr, "urlfsim: cannot resume: %s\n",
                   adopted.error().c_str());
      return 1;
    }
    campaign = std::move(adopted.value());
    journal = std::move(opened.value());
    const auto& stats = journal->stats();
    std::fprintf(stderr,
                 "resuming: %zu journaled record(s)%s, %zu torn byte(s) "
                 "discarded\n",
                 stats.loadedRecords, stats.tornTail ? " (torn tail)" : "",
                 stats.droppedBytes);
  } else {
    campaign.seed = options.seed;
    campaign.world = options.worldOptions;
    campaign.outages = options.outages;
    if (options.quorum >= 2) {
      campaign.quorum = options.quorum;
      campaign.hedge = options.hedge;
      // The quorum draws on "-q<i>" clones of each field vantage; make sure
      // the world builds enough of them.
      campaign.world.quorumVantages =
          std::max(campaign.world.quorumVantages, options.quorum - 1);
    }
    if (options.breakerThreshold) {
      campaign.healthEnabled = true;
      campaign.breaker.failureThreshold = *options.breakerThreshold;
    }
    if (options.journalPath)
      journal = measure::CampaignJournal::start(*options.journalPath,
                                                campaign.headerJson());
  }

  scenarios::CampaignReport result;
  try {
    result = scenarios::runPaperCampaign(
        campaign, journal ? &journal.value() : nullptr);
  } catch (const measure::JournalDivergence& e) {
    std::fprintf(stderr, "urlfsim: cannot resume: %s\n", e.what());
    return 1;
  }

  if (options.json) {
    std::printf("%s\n", result.toJson().dump(2).c_str());
    return 0;
  }
  std::printf("campaign digest: %s\n", result.digestHex().c_str());
  std::printf("confirmed case studies: %d\n", result.confirmedCaseStudies);
  std::printf("probe blocked categories: %d\n",
              result.probeBlockedCategories);
  std::printf("table 4 blocked cells: %d\n", result.table4Blocked);
  if (result.degradedRows > 0)
    std::printf("degraded rows (vantage quarantined): %d\n",
                result.degradedRows);
  for (const auto& [vantage, state] : result.vantageHealth)
    std::printf("  breaker %-18s %s\n", vantage.c_str(),
                std::string(measure::toString(state)).c_str());
  return 0;
}

int runMonitorCommand(const Options& options) {
  // Longitudinal monitoring (DESIGN.md §4.7): a resident campaign re-runs
  // scan → identify → re-test each tick, reporting what changed. Fresh runs
  // execute the baseline plus --ticks churn ticks; --resume picks a
  // checkpointed campaign back up (config adopted from the checkpoint
  // header, --ticks further ticks are executed).
  std::unique_ptr<scenarios::MonitorSession> session;
  if (options.resume) {
    if (!options.checkpointPath) {
      std::fprintf(stderr, "urlfsim: --resume requires --checkpoint PATH\n");
      return 1;
    }
    auto resumed = scenarios::MonitorSession::resume(
        *options.checkpointPath, options.monitorMode, options.threads);
    if (!resumed) {
      std::fprintf(stderr, "urlfsim: %s\n", resumed.error().c_str());
      return 1;
    }
    session = std::move(resumed.value());
    std::fprintf(stderr, "resuming at tick %d (%s mode)\n", session->tick(),
                 std::string(toString(options.monitorMode)).c_str());
  } else {
    scenarios::MonitorOptions monitor;
    monitor.seed = options.seed;
    monitor.world = options.worldOptions;
    monitor.streamHosts = options.monitorHosts;
    monitor.ticks = options.monitorTicks;
    monitor.tickHours = options.tickHours;
    monitor.churn = options.monitorChurn;
    monitor.mode = options.monitorMode;
    monitor.threads = options.threads;
    if (options.breakerThreshold) {
      monitor.healthEnabled = true;
      monitor.breaker.failureThreshold = *options.breakerThreshold;
    }
    session = scenarios::MonitorSession::create(monitor);
  }

  const int firstTick = session->tick() + 1;
  const int lastTick = options.resume
                           ? session->tick() + options.monitorTicks
                           : options.monitorTicks;
  report::Json ticksJson = report::Json::array();
  for (int t = firstTick; t <= lastTick; ++t) {
    const auto tick = session->runTick();
    if (options.checkpointPath)
      session->writeCheckpoint(*options.checkpointPath);
    if (options.json) {
      ticksJson.push(tick.toJson());
      continue;
    }
    std::printf(
        "tick %2d (t+%5lldh): +%d -%d ~%d installations, %d verdict "
        "flip(s), %zu/%zu URLs fetched, %zu/%zu cells rebuilt, digest %s\n",
        tick.tick, static_cast<long long>(tick.atHours), tick.newlyConfirmed,
        tick.decommissioned, tick.relocated, tick.verdictFlips,
        tick.urlsTested, tick.urlsTested + tick.urlsReused, tick.cellsRebuilt,
        tick.cellCount, tick.digestHex().c_str());
    for (const auto& note : tick.notes)
      std::printf("    %s\n", note.c_str());
  }

  if (options.json) {
    report::Json out = report::Json::object();
    out["mode"] =
        report::Json::string(std::string(toString(options.monitorMode)));
    out["ticks"] = std::move(ticksJson);
    out["chain_digest"] = report::Json::string(
        scenarios::TickReport{.digest = session->chainDigest()}.digestHex());
    std::printf("%s\n", out.dump(2).c_str());
  } else {
    std::printf("chain digest: %016llx\n",
                static_cast<unsigned long long>(session->chainDigest()));
    if (options.checkpointPath)
      std::printf("checkpoint: %s (tick %d)\n",
                  options.checkpointPath->c_str(), session->tick());
  }
  return 0;
}

int runExportScan(const Options& options) {
  scenarios::PaperWorld paper(options.seed, options.worldOptions);
  const auto geo = paper.world().buildGeoDatabase();
  const auto index = scan::crawlStream(paper.world(), geo);
  std::printf("%s\n",
              scan::exportRecords(index.residentRecords(), 2).c_str());
  return 0;
}

int runServe(const Options& options) {
  // Resident campaign server demo (DESIGN.md §4.6): spin up the server and
  // its event loop, then drive it the way tenants would — two concurrent
  // campaigns over the wire format, queries before and after a live
  // recategorization — and finish with the server's own status report.
  // Exits 1 if any session misbehaves or a digest disagrees with solo.
  scenarios::CampaignOptions base;
  base.seed = options.seed;
  base.world = options.worldOptions;
  const std::string soloDigest = scenarios::runPaperCampaign(base).digestHex();

  serve::ServerConfig config;
  config.workers = 4;
  config.maxQueued = 8;
  serve::CampaignServer server(config);
  server.addSnapshot("paper", base);
  serve::ServerLoop loop(server);

  auto post = [](const std::string& path, const report::Json& body) {
    http::Request request;
    request.method = "POST";
    request.url = *net::Url::parse("http://campaigns.sim" + path);
    request.body = body.dump();
    return request;
  };
  auto field = [](const http::Response& response, const char* name) {
    const auto body = report::Json::parse(response.body);
    if (!body) return std::string("<unparseable>");
    const auto* value = body->find(name);
    if (value == nullptr) return std::string("<missing>");
    if (value->asString()) return *value->asString();
    return value->dump();
  };

  report::Json campaign = report::Json::object();
  campaign["kind"] = report::Json::string("campaign");
  campaign["snapshot"] = report::Json::string("paper");

  report::Json query = report::Json::object();
  query["kind"] = report::Json::string("query");
  query["snapshot"] = report::Json::string("paper");
  query["vantage"] = report::Json::string("field-bayanat");
  query["date"] = report::Json::string("2013-05-06");
  report::Json urls = report::Json::array();
  urls.push(report::Json::string("http://humanrightsmonitor.org/"));
  query["urls"] = std::move(urls);

  report::Json edit = report::Json::object();
  edit["snapshot"] = report::Json::string("paper");
  edit["product"] = report::Json::string("McAfee SmartFilter");
  edit["host"] = report::Json::string("humanrightsmonitor.org");
  edit["category"] = report::Json::string("Pornography");

  // Two tenants race full campaigns while a third runs the cheap query.
  auto alpha = loop.connect();
  auto beta = loop.connect();
  auto gamma = loop.connect();
  alpha->sendRequest(post("/v1/session", campaign));
  beta->sendRequest(post("/v1/session", campaign));
  const auto preEdit = gamma->roundTrip(post("/v1/session", query));
  const auto fromAlpha = alpha->awaitResponse();
  const auto fromBeta = beta->awaitResponse();

  bool ok = true;
  for (const auto* result : {&fromAlpha, &fromBeta}) {
    if (!result->ok() || result->value().statusCode != 200 ||
        field(result->value(), "digest") != soloDigest) {
      std::fprintf(stderr, "urlfsim: campaign session diverged from solo\n");
      ok = false;
    }
  }
  if (!preEdit.ok() || preEdit.value().statusCode != 200) {
    std::fprintf(stderr, "urlfsim: query session failed\n");
    ok = false;
  }

  // Live recategorization: the verdict flips for sessions that start later.
  const auto edited = gamma->roundTrip(post("/v1/admin/recategorize", edit));
  const auto postEdit = gamma->roundTrip(post("/v1/session", query));
  if (!edited.ok() || edited.value().statusCode != 200 || !postEdit.ok() ||
      postEdit.value().statusCode != 200) {
    std::fprintf(stderr, "urlfsim: recategorization round failed\n");
    ok = false;
  }

  http::Request status;
  status.url = *net::Url::parse("http://campaigns.sim/v1/status");
  const auto statusResponse = gamma->roundTrip(status);
  loop.stop();

  if (options.json) {
    report::Json out = report::Json::object();
    out["solo_digest"] = report::Json::string(soloDigest);
    out["campaign_digests_equal"] = report::Json::boolean(ok);
    if (preEdit.ok())
      out["query_before_edit"] = *report::Json::parse(preEdit.value().body);
    if (postEdit.ok())
      out["query_after_edit"] = *report::Json::parse(postEdit.value().body);
    if (statusResponse.ok())
      out["status"] = *report::Json::parse(statusResponse.value().body);
    std::printf("%s\n", out.dump(2).c_str());
  } else {
    std::printf("solo digest          %s\n", soloDigest.c_str());
    std::printf("campaign sessions    2 concurrent, digests %s\n",
                ok ? "identical" : "DIVERGED");
    if (preEdit.ok() && postEdit.ok())
      std::printf("query flip           epoch %s -> epoch %s after "
                  "recategorization\n",
                  field(preEdit.value(), "epoch").c_str(),
                  field(postEdit.value(), "epoch").c_str());
    if (statusResponse.ok())
      std::printf("server status        %s\n",
                  statusResponse.value().body.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `diff` and `reanalyze` take positional file arguments.
  if (argc >= 2 && std::strcmp(argv[1], "diff") == 0) {
    if (argc != 4) return usage();
    return runDiff(Options{}, argv[2], argv[3]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "reanalyze") == 0) {
    if (argc < 3 || argc > 4) return usage();
    const bool mine = argc == 4 && std::strcmp(argv[3], "--mine") == 0;
    return runReanalyze(argv[2], mine);
  }
  const auto options = parseArgs(argc, argv);
  if (!options) return usage();
  if (options->command == "identify") return runIdentify(*options);
  if (options->command == "confirm") return runConfirm(*options);
  if (options->command == "characterize") return runCharacterize(*options);
  if (options->command == "probe") return runProbe(*options);
  if (options->command == "scout") return runScout(*options);
  if (options->command == "proxy-detect") return runProxyDetect(*options);
  if (options->command == "profile") return runProfile(*options);
  if (options->command == "record") return runRecord(*options);
  if (options->command == "export-scan") return runExportScan(*options);
  if (options->command == "campaign") return runCampaign(*options);
  if (options->command == "monitor") return runMonitorCommand(*options);
  if (options->command == "serve") return runServe(*options);
  if (options->command == "mechanisms") return runMechanisms(*options);
  return usage();
}
