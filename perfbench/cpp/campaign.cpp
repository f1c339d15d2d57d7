// campaign: the full paper campaign (ten Table 3 case studies, the §4.4
// Netsweeper category probe, Table 4) on a fresh PaperWorld per operation,
// one caller, classify threads pinned.
//
// The traced pass replays the same campaign from the public layer calls
// (PaperWorld, Confirmer::run, Confirmer::probeNetsweeperCategories,
// Characterizer::characterize) with a span around each, folds the same
// digest runPaperCampaign does, and then drills into the fetch path of the
// campaign's Table 4 lists (Client::testList, Transport::fetch,
// CompiledPatternLibrary classify, CategoryDatabase lookups).
#include <array>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/characterizer.h"
#include "core/confirmer.h"
#include "filters/category_set.h"
#include "measure/blockpage.h"
#include "measure/client.h"
#include "measure/pattern_library.h"
#include "scenarios/campaign.h"
#include "simnet/transport.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using namespace urlf;

constexpr std::size_t kClassifyThreads = 1;

/// The paper's Table 3 (Dalek et al., IMC 2013): product, ISP, retest
/// month, submitted ratio, blocked ratio, confirmed.
struct PaperRow {
  filters::ProductKind product;
  const char* isp;
  const char* date;
  const char* submitted;
  const char* blocked;
  bool confirmed;
};
using PK = filters::ProductKind;
const std::array<PaperRow, 10> kTable3{{
    {PK::kBlueCoat, "Etisalat", "4/2013", "3/6", "0/3", false},
    {PK::kBlueCoat, "Ooredoo", "4/2013", "3/6", "0/3", false},
    {PK::kSmartFilter, "Ooredoo", "4/2013", "5/10", "0/5", false},
    {PK::kSmartFilter, "Bayanat Al-Oula", "9/2012", "5/10", "5/5", true},
    {PK::kSmartFilter, "Nournet", "5/2013", "5/10", "5/5", true},
    {PK::kSmartFilter, "Etisalat", "9/2012", "5/10", "5/5", true},
    {PK::kSmartFilter, "Etisalat", "4/2013", "5/10", "5/5", true},
    {PK::kNetsweeper, "Ooredoo", "8/2013", "6/12", "6/6", true},
    {PK::kNetsweeper, "Du", "3/2013", "6/12", "5/6", true},
    {PK::kNetsweeper, "YemenNet", "3/2013", "6/12", "6/6", true},
}};

/// §4.4: 5 of the 66 Netsweeper test categories blocked in YemenNet.
constexpr int kProbeCategories = 66;
constexpr int kProbeBlocked = 5;

/// The six Article-19 content categories of Table 4.
const std::array<const char*, 6> kArticle19{
    "Media Freedom", "Human Rights",        "Political Reform",
    "LGBT",          "Religious Criticism", "Minority Groups and Religions"};

struct Network {
  const char* vantage;
  const char* alpha2;
  util::CivilDate date;
  int runs;
  filters::ProductKind product;  ///< the product Table 4 attributes
};
const std::array<Network, 4> kNetworks{{
    {"field-etisalat", "AE", {2013, 5, 6}, 1, filters::ProductKind::kSmartFilter},
    {"field-yemennet", "YE", {2013, 4, 1}, 3, filters::ProductKind::kNetsweeper},
    {"field-du", "AE", {2013, 4, 1}, 1, filters::ProductKind::kNetsweeper},
    {"field-ooredoo", "QA", {2013, 8, 26}, 1, filters::ProductKind::kNetsweeper},
}};

/// The campaign runs in the paper's world: Table 3 holds at the paper's
/// seed only (the Du deployment's partial sync is a seeded draw), so the
/// run seed does not change this workload's inputs.
scenarios::CampaignOptions campaignOptions() {
  scenarios::CampaignOptions options;
  options.seed = scenarios::kPaperSeed;
  options.classifyMode = measure::ClassifyMode::kCompiled;
  options.classifyThreads = kClassifyThreads;
  options.memoizeVerdicts = true;
  return options;
}

void digestResult(std::ostringstream& digest,
                  const measure::UrlTestResult& result) {
  digest << result.url << '|' << static_cast<int>(result.verdict) << '|';
  if (result.blockPage)
    digest << filters::toString(result.blockPage->product) << '/'
           << result.blockPage->patternName;
  else
    digest << '-';
  if (result.provenance == measure::Provenance::kDegraded) digest << "|degraded";
  digest << '\n';
}

/// The campaign replayed from public layer calls.
struct Replica {
  std::uint64_t digest = 0;
  std::vector<core::CaseStudyResult> cases;
  std::vector<core::CategoryProbeResult> probe;
  std::vector<core::CharacterizationResult> networks;
  int confirmed = 0;
  int probeBlocked = 0;
  int table4Blocked = 0;
};

/// Run the campaign on `paper` exactly as scenarios::runPaperCampaign does,
/// with a span around each layer call when `tracer` is set.
Replica replay(scenarios::PaperWorld& paper,
               const scenarios::CampaignOptions& options, Tracer* tracer) {
  const auto scope = [&](std::string_view name) {
    return tracer ? std::optional<Tracer::Scope>(std::in_place, *tracer, name)
                  : std::nullopt;
  };
  Replica out;
  std::ostringstream digest;
  auto& world = paper.world();
  core::CampaignContext ctx;
  core::Confirmer confirmer(world, paper.hosting(), paper.vendorSet());

  bool probeDone = false;
  for (const auto& caseStudy : paper.caseStudies()) {
    if (!probeDone && caseStudy.startDate >= util::CivilDate{2013, 1, 1}) {
      scenarios::advanceClockTo(world, {2013, 1, 14});
      {
        const auto span = scope("core.probe");
        out.probe = confirmer.probeNetsweeperCategories(
            "field-yemennet", "lab-toronto", {}, ctx);
      }
      digest << "probe:";
      for (const auto& p : out.probe) {
        digest << p.category << '=' << (p.blocked ? '1' : '0') << ';';
        if (p.blocked) ++out.probeBlocked;
      }
      digest << '\n';
      probeDone = true;
    }
    scenarios::advanceClockTo(world, caseStudy.startDate);
    auto config = caseStudy.config;
    config.classifyMode = options.classifyMode;
    config.classifyThreads = options.classifyThreads;
    config.memoizeVerdicts = options.memoizeVerdicts;
    core::CaseStudyResult result;
    {
      const auto span = scope("core.confirm");
      result = confirmer.run(config, ctx);
    }
    if (result.confirmed) ++out.confirmed;
    digest << "case:" << filters::toString(config.product) << '|'
           << config.ispName << '|' << result.dateLabel << '|'
           << result.submittedRatio() << '|' << result.blockedRatio() << '|'
           << (result.confirmed ? 'y' : 'n') << '|'
           << result.pretestAccessibleCount << '|'
           << result.attributedToProduct << '|' << result.controlBlocked
           << '|' << result.notes << '\n';
    for (const auto& r : result.finalResults) digestResult(digest, r);
    out.cases.push_back(std::move(result));
  }

  core::Characterizer characterizer(world);
  for (const auto& network : kNetworks) {
    scenarios::advanceClockTo(world, network.date);
    core::CharacterizeOptions characterizeOptions;
    characterizeOptions.runs = network.runs;
    characterizeOptions.classifyMode = options.classifyMode;
    characterizeOptions.classifyThreads = options.classifyThreads;
    characterizeOptions.memoizeVerdicts = options.memoizeVerdicts;
    core::CharacterizationResult result;
    {
      const auto span = scope("core.characterize");
      result = characterizer.characterize(
          network.vantage, "lab-toronto", paper.globalList(),
          paper.localList(network.alpha2), characterizeOptions);
    }
    digest << "network:" << network.vantage << '|'
           << (result.attributedProduct
                   ? filters::toString(*result.attributedProduct)
                   : "(none)");
    for (const auto& [category, cell] : result.cells) {
      digest << '|' << category << '=' << cell.tested << '/' << cell.blocked;
      if (cell.untestable > 0) digest << "/u" << cell.untestable;
      if (cell.contested > 0) digest << "/c" << cell.contested;
      out.table4Blocked += cell.blocked;
    }
    digest << '\n';
    for (const auto& r : result.results) digestResult(digest, r);
    out.networks.push_back(std::move(result));
  }
  out.digest = util::fnv1a64(digest.str());
  return out;
}

/// Check a replayed campaign against the paper (Table 3, §4.4, Table 4)
/// and against the report of runPaperCampaign.
void checkAgainstPaper(Outcome& outcome, const Replica& replica,
                       const scenarios::CampaignReport& report) {
  // Case studies run in chronological order; match them to the paper's
  // rows by product, ISP and month.
  outcome.expect(replica.cases.size() == kTable3.size(),
                 "ten Table 3 case studies");
  std::set<std::size_t> matched;
  for (const auto& got : replica.cases) {
    const std::string row = std::string(filters::toString(got.config.product)) +
                            " / " + got.config.ispName + " / " + got.dateLabel;
    const PaperRow* want = nullptr;
    for (std::size_t i = 0; i < kTable3.size(); ++i)
      if (kTable3[i].product == got.config.product &&
          got.config.ispName == kTable3[i].isp &&
          got.dateLabel == kTable3[i].date && matched.insert(i).second) {
        want = &kTable3[i];
        break;
      }
    outcome.expect(want != nullptr, "Table 3 has a row for " + row);
    if (want == nullptr) continue;
    outcome.expect(got.submittedRatio() == want->submitted,
                   "Table 3 " + row + " submitted " + got.submittedRatio() +
                       ", paper " + want->submitted);
    outcome.expect(got.blockedRatio() == want->blocked,
                   "Table 3 " + row + " blocked " + got.blockedRatio() +
                       ", paper " + want->blocked);
    outcome.expect(got.confirmed == want->confirmed,
                   "Table 3 " + row + " verdict");
  }
  outcome.expect(static_cast<int>(replica.probe.size()) == kProbeCategories &&
                     replica.probeBlocked == kProbeBlocked,
                 "§4.4 probe: 5 of 66 Netsweeper categories blocked");
  outcome.expect(replica.networks.size() == kNetworks.size(),
                 "four Table 4 networks");
  for (std::size_t i = 0; i < replica.networks.size(); ++i) {
    const auto& result = replica.networks[i];
    const auto& network = kNetworks[i];
    outcome.expect(result.attributedProduct == network.product,
                   std::string("Table 4 ") + network.vantage +
                       " block pages attributed to " +
                       std::string(filters::toString(network.product)));
    bool article19 = false;
    for (const char* category : kArticle19)
      article19 = article19 || result.categoryBlocked(category);
    outcome.expect(article19, std::string("Table 4 ") + network.vantage +
                                  " blocks Article-19 content");
  }
  outcome.expect(replica.digest == report.digest,
                 "public-call replay digest equals runPaperCampaign digest");
  outcome.expect(replica.confirmed == report.confirmedCaseStudies &&
                     replica.probeBlocked == report.probeBlockedCategories &&
                     replica.table4Blocked == report.table4Blocked,
                 "replay tallies equal the campaign report");
}

bool sameReport(const scenarios::CampaignReport& a,
                const scenarios::CampaignReport& b) {
  return a.digest == b.digest &&
         a.confirmedCaseStudies == b.confirmedCaseStudies &&
         a.probeBlockedCategories == b.probeBlockedCategories &&
         a.table4Blocked == b.table4Blocked && a.degradedRows == b.degradedRows;
}

/// Drill into the fetch path on the campaign's own world (clock after the
/// last characterization): Client::testList over each Table 4 network's
/// lists, then one Transport::fetch, one classify and one category lookup
/// per URL.
void drillDown(scenarios::PaperWorld& paper, Tracer& tracer) {
  auto& world = paper.world();
  const auto* lab = world.findVantage("lab-toronto");
  const auto& library = measure::CompiledPatternLibrary::builtin();
  for (const auto& network : kNetworks) {
    const auto* field = world.findVantage(network.vantage);
    std::vector<std::string> urls = paper.globalList().urls();
    for (auto& url : paper.localList(network.alpha2).urls())
      urls.push_back(std::move(url));

    // Each list is tested twice at one clock, so the second pass can be
    // answered by the verdict memo where the chains allow it.
    measure::Client client(world, *field, *lab);
    client.enableVerdictMemo(true);
    constexpr int kPasses = 2;
    for (int pass = 0; pass < kPasses; ++pass) {
      const auto span = tracer.span("measure.testlist");
      const auto results = client.testList(urls);
      tracer.count("measure.testlist.urls", static_cast<double>(urls.size()));
    }
    const double tests = static_cast<double>(urls.size()) * kPasses;
    const double hits = static_cast<double>(client.verdictMemoHits());
    tracer.count("measure.memo_hits", hits);
    tracer.count("measure.memo_misses", tests - hits);

    simnet::Transport transport(world);
    std::vector<simnet::FetchResult> fetched;
    fetched.reserve(urls.size());
    for (const auto& url : urls) {
      const auto span = tracer.span("simnet.fetch");
      fetched.push_back(transport.fetchUrl(*field, url));
    }
    // Benign pages and block pages are timed apart: a block page stops at
    // its first matching pattern, a benign page is tried against all.
    for (const auto& result : fetched) {
      const std::string trace = measure::fetchTrace(result);
      const auto start = tracer.nowNs();
      const bool blockPage = library.classifyTrace(trace).has_value();
      tracer.record(blockPage ? "measure.classify.blockpage"
                              : "measure.classify.benign",
                    start, tracer.nowNs());
    }
    filters::CategorySet categories;
    for (const auto& url : urls) {
      const auto parsed = net::Url::parse(url);
      if (!parsed) continue;
      for (const auto product : filters::allProducts()) {
        const auto& db = paper.vendor(product).masterDb();
        categories.clear();
        const auto span = tracer.span("filters.categorize");
        db.categorizeAsOfInto(*parsed, world.now(), categories);
      }
    }
  }
}

}  // namespace

Outcome campaignUntraced(const RunConfig& config) {
  Outcome outcome;
  Timing timing;
  const auto options = campaignOptions();

  // Set-up: one untimed warm-up campaign (world build, lazy pattern
  // compilation, pool start-up), repeated for a steady median.
  scenarios::CampaignReport first;
  timeSetups(9, timing, [&] { first = scenarios::runPaperCampaign(options); });

  std::vector<scenarios::CampaignReport> reports;
  runRounds(config.seconds, timing, [&](std::vector<double>& latencies) {
    const auto start = Clock::now();
    auto report = scenarios::runPaperCampaign(options);
    latencies.push_back(msSince(start));
    reports.push_back(std::move(report));
  });
  addEndToEnd(outcome, timing);

  // Checks, untimed.
  outcome.attempted = reports.size();
  for (const auto& report : reports)
    if (!sameReport(report, first)) ++outcome.failed;
  outcome.expect(outcome.failed == 0, "every campaign reproduces its report");
  scenarios::PaperWorld paper(options.seed, options.world);
  checkAgainstPaper(outcome, replay(paper, options, nullptr), first);
  auto reference = options;
  reference.classifyMode = measure::ClassifyMode::kReference;
  reference.classifyThreads = 1;
  reference.memoizeVerdicts = false;
  outcome.expect(sameReport(scenarios::runPaperCampaign(reference), first),
                 "reference classify path reaches the same digest");
  return outcome;
}

void campaignTraced(const RunConfig& config, Outcome& outcome) {
  constexpr int kOps = 30;
  const auto options = campaignOptions();
  const auto expected = scenarios::runPaperCampaign(options);

  // Untraced and traced replays alternate, so warm-up favours neither.
  Tracer tracer;
  double untracedMs = 0.0;
  double tracedMs = 0.0;
  double fetches = 0.0;
  for (int i = 0; i < kOps; ++i) {
    {
      const auto start = Clock::now();
      scenarios::PaperWorld paper(options.seed, options.world);
      const auto replica = replay(paper, options, nullptr);
      untracedMs += msSince(start);
      outcome.expect(replica.digest == expected.digest,
                     "untraced replay digest");
    }
    tracer.beginOp(static_cast<std::uint64_t>(i));
    std::optional<scenarios::PaperWorld> paper;
    Replica replica;
    const auto start = Clock::now();
    {
      const auto op = tracer.span("campaign.op");
      {
        const auto span = tracer.span("scenarios.paper_world");
        paper.emplace(options.seed, options.world);
      }
      replica = replay(*paper, options, &tracer);
    }
    tracedMs += msSince(start);
    ++outcome.attempted;
    if (replica.digest != expected.digest) ++outcome.failed;
    outcome.expect(replica.digest == expected.digest, "traced replay digest");
    for (const auto& c : replica.cases)
      for (const auto& r : c.finalResults)
        fetches += r.field.attempts + r.lab.attempts;
    for (const auto& n : replica.networks)
      for (const auto& r : n.results) fetches += r.field.attempts + r.lab.attempts;
    const auto drill = tracer.span("campaign.drilldown");
    drillDown(*paper, tracer);
  }
  if (!config.traceDir.empty())
    tracer.write(config.traceDir + "/campaign.jsonl");

  addOverhead(outcome, "campaign", untracedMs, tracedMs, kOps);
  addLayer(outcome, tracer, "scenarios.paper_world", "scenarios.paper_world_ms",
           "ms");
  addLayer(outcome, tracer, "core.confirm", "core.confirm_ms", "ms");
  addLayer(outcome, tracer, "core.characterize", "core.characterize_ms", "ms");
  addLayer(outcome, tracer, "measure.testlist", "measure.testlist_us", "us",
           tracer.counted("measure.testlist.urls"));
  addLayer(outcome, tracer, "simnet.fetch", "simnet.fetch_us", "us");
  outcome.add("simnet.fetches", fetches / kOps, "count", kOps);
  const auto layers = tracer.layers();
  const auto benign = layers.find("measure.classify.benign");
  const auto blocked = layers.find("measure.classify.blockpage");
  if (benign != layers.end() && blocked != layers.end()) {
    const double spans =
        static_cast<double>(benign->second.spans + blocked->second.spans);
    outcome.add("measure.classify_us",
                (benign->second.selfNs + blocked->second.selfNs) / spans * 1e-3,
                "us", static_cast<std::uint64_t>(spans));
  } else {
    outcome.expect(false, "classify spans for benign and block pages");
  }
  addLayer(outcome, tracer, "measure.classify.benign",
           "measure.classify_benign_us", "us");
  addLayer(outcome, tracer, "measure.classify.blockpage",
           "measure.classify_blockpage_us", "us");
  addLayer(outcome, tracer, "filters.categorize", "filters.categorize_ns", "ns");
  const double tests = tracer.counted("measure.memo_hits") +
                       tracer.counted("measure.memo_misses");
  outcome.add("measure.memo_hits", tracer.counted("measure.memo_hits") / kOps,
              "count", static_cast<std::uint64_t>(tests));
  outcome.add("measure.memo_misses",
              tracer.counted("measure.memo_misses") / kOps, "count",
              static_cast<std::uint64_t>(tests));
}

}  // namespace perfbench
