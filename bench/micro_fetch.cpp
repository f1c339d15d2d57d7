// Fetch→classify hot-path benchmark: the per-call <regex> reference vs the
// compiled pattern library (classifyBlockPage), timed apart on benign pages
// and on vendor block pages, and the tree-based reference category store vs
// the flat CategoryDatabase, on synthetic campaign-scale workloads. It also
// times the fetch path's own layers over the paper campaign's Table 4 URLs
// ("layers": URL parse, resolve, one fetch attempt, and a vendor queue call
// with nothing due). Emits BENCH_fetch.json (campaign_e2e merges its
// end-to-end numbers into the same file).
//
// Usage: micro_fetch [--quick] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "filters/category_db.h"
#include "filters/vendor.h"
#include "measure/blockpage.h"
#include "measure/pattern_library.h"
#include "oracles/reference_category_store.h"
#include "report/json.h"
#include "scenarios/paper_world.h"
#include "simnet/transport.h"
#include "util/rng.h"

namespace {

using namespace urlf;
using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

template <typename Fn>
double bestOf(int reps, Fn&& fn) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    const double elapsed = millisSince(start);
    if (best < 0.0 || elapsed < best) best = elapsed;
  }
  return best;
}

std::uint64_t fnv1a64(std::string_view s, std::uint64_t hash) {
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- classify workload ------------------------------------------------------

http::Response benignPage(util::Rng& rng, int i) {
  static const std::vector<std::string> kWords{
      "news",   "sports", "travel", "gateway", "filter", "proxy",
      "recipe", "forum",  "coat",   "session", "deny",   "admin"};
  std::string body = "<html><head><title>Site " + std::to_string(i) +
                     "</title></head><body>";
  const int words = 150 + static_cast<int>(rng.uniform(0, 200));
  for (int w = 0; w < words; ++w) {
    body += rng.pick(kWords);
    body += ' ';
  }
  body += "</body></html>";
  auto resp = http::Response::make(http::Status::kOk, std::move(body));
  resp.headers.set("Server", "Apache/2.2.22");
  return resp;
}

/// One synthetic fetch result: ~15% vendor block pages (spread across the
/// four products' signature shapes), the rest benign pages of varying size —
/// roughly a campaign against a censored network. `blockPage` reports which.
simnet::FetchResult makeResult(util::Rng& rng, int i, bool& blockPage) {
  simnet::FetchResult result;
  blockPage = rng.chance(0.15);
  if (!blockPage) {
    result.response = benignPage(rng, i);
    return result;
  }
  switch (rng.uniform(0, 3)) {
    case 0: {  // SmartFilter: Via header on the proxied response
      auto resp = benignPage(rng, i);
      resp.statusCode = 403;
      resp.reason = "Forbidden";
      resp.headers.set("Via", "1.1 mcafee-gw (McAfee Web Gateway 7.2)");
      result.response = std::move(resp);
      break;
    }
    case 1: {  // Blue Coat: cfauth.com bounce in the redirect chain
      auto hop = http::Response::make(http::Status::kFound);
      hop.headers.set("Location",
                      "http://www.cfauth.com/?cfru=aHR0cDovL2V4YW1wbGUuY29tLw" +
                          std::to_string(i));
      result.redirectChain.push_back(std::move(hop));
      result.response = benignPage(rng, i);
      break;
    }
    case 2: {  // Netsweeper: deny redirect to webadmin on :8080
      auto hop = http::Response::make(http::Status::kFound);
      hop.headers.set("Location",
                      "http://10.4.0.2:8080/webadmin/deny.php?dpid=" +
                          std::to_string(i));
      result.redirectChain.push_back(std::move(hop));
      result.response = http::Response::make(
          http::Status::kOk,
          "<html><head><title>Web page blocked</title></head>"
          "<body>Netsweeper WebAdmin</body></html>");
      break;
    }
    default: {  // Websense: blockpage.cgi on :15871 with ws-session
      auto hop = http::Response::make(http::Status::kFound);
      hop.headers.set(
          "Location",
          "http://10.9.0.8:15871/cgi-bin/blockpage.cgi?ws-session=" +
              std::to_string(1000000 + i));
      result.redirectChain.push_back(std::move(hop));
      result.response = http::Response::make(
          http::Status::kOk,
          "<html><head><title>Websense - Access denied</title></head>"
          "<body>Blocked by policy.</body></html>");
      break;
    }
  }
  return result;
}

std::uint64_t hashMatches(
    const std::vector<std::optional<measure::BlockPageMatch>>& matches) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& match : matches) {
    if (!match) {
      h = fnv1a64("-;", h);
      continue;
    }
    h = fnv1a64(filters::toString(match->product), h);
    h = fnv1a64(match->patternName, h);
    h = fnv1a64(match->evidence, h);
    h = fnv1a64(";", h);
  }
  return h;
}

// --- categorize workload ----------------------------------------------------

/// The per-request lookup Deployment::onRequest runs: every request
/// unions the operator's custom DB with the (update-lagged) master DB. The
/// reference side reproduces the old code shape — two std::set results
/// merged into a third per probe; the fast side reuses one CategorySet.
struct CategorizeWorkload {
  oracles::ReferenceCategoryStore referenceMaster;
  oracles::ReferenceCategoryStore referenceCustom;
  filters::CategoryDatabase flatMaster;
  filters::CategoryDatabase flatCustom;
  std::vector<net::Url> probes;
  std::vector<util::SimTime> cutoffs;
};

CategorizeWorkload makeCategorizeWorkload(int urls, util::Rng& rng) {
  CategorizeWorkload w;
  // Vendor databases dwarf any one test list ("Netsweeper by the numbers"),
  // so the categorized population is several times the probe count.
  const int hosts = urls * 2;
  std::vector<std::string> hostnames;
  hostnames.reserve(static_cast<std::size_t>(hosts));
  for (int i = 0; i < hosts; ++i)
    hostnames.push_back("site" + std::to_string(i) + ".example" +
                        std::to_string(i % 7) + ".com");

  // Master DB: ~60% of the hosts categorized (1-4 categories each,
  // staggered addedAt) plus exact-URL entries.
  for (int i = 0; i < hosts; ++i) {
    if (!rng.chance(0.6)) continue;
    const int categories = 1 + static_cast<int>(rng.uniform(0, 3));
    for (int c = 0; c < categories; ++c) {
      const auto category = static_cast<filters::CategoryId>(rng.uniform(1, 90));
      const util::SimTime addedAt{
          static_cast<std::int64_t>(rng.uniform(0, 10000))};
      w.referenceMaster.addHost(hostnames[static_cast<std::size_t>(i)],
                                category, addedAt);
      w.flatMaster.addHost(hostnames[static_cast<std::size_t>(i)], category,
                           addedAt);
    }
    if (rng.chance(0.1)) {
      const auto url = net::Url::parse(
          "http://" + hostnames[static_cast<std::size_t>(i)] + "/page.html");
      const auto category = static_cast<filters::CategoryId>(rng.uniform(1, 90));
      const util::SimTime addedAt{
          static_cast<std::int64_t>(rng.uniform(0, 10000))};
      w.referenceMaster.addUrl(*url, category, addedAt);
      w.flatMaster.addUrl(*url, category, addedAt);
    }
  }

  // Custom DB: the operator's local overrides — small, but consulted on
  // every request.
  for (int i = 0; i < hosts; i += 199) {
    const auto category = static_cast<filters::CategoryId>(rng.uniform(1, 90));
    w.referenceCustom.addHost(hostnames[static_cast<std::size_t>(i)], category);
    w.flatCustom.addHost(hostnames[static_cast<std::size_t>(i)], category);
  }

  // Probe URLs: a mix of categorized hosts, www. variants (registrable-domain
  // fallback), exact URLs, and misses, each with its own cutoff.
  w.probes.reserve(static_cast<std::size_t>(urls));
  w.cutoffs.reserve(static_cast<std::size_t>(urls));
  for (int i = 0; i < urls; ++i) {
    const auto& host = hostnames[rng.index(hostnames.size())];
    std::string text = "http://";
    switch (rng.uniform(0, 3)) {
      case 0: text += "www." + host + "/"; break;
      case 1: text += host + "/page.html"; break;
      case 2: text += "miss" + std::to_string(i) + ".nowhere.net/"; break;
      default: text += host + "/"; break;
    }
    w.probes.push_back(*net::Url::parse(text));
    w.cutoffs.push_back(
        util::SimTime{static_cast<std::int64_t>(rng.uniform(0, 12000))});
  }
  return w;
}

// --- one size ---------------------------------------------------------------

report::Json benchAtSize(int urls, int reps) {
  report::Json out = report::Json::object();
  out["urls"] = report::Json::number(std::int64_t{urls});

  // --- classifyBlockPage: reference vs compiled -------------------------
  // Benign pages and block pages are timed apart: a benign page is tried
  // against every pattern, a block page stops at its first match.
  util::Rng rng(20130814u + static_cast<std::uint64_t>(urls));
  std::vector<simnet::FetchResult> groups[2];  // [0] benign, [1] block pages
  for (int i = 0; i < urls; ++i) {
    bool blockPage = false;
    auto result = makeResult(rng, i, blockPage);
    groups[blockPage ? 1 : 0].push_back(std::move(result));
  }

  const auto& patterns = measure::builtinBlockPagePatterns();
  double classifyReferenceMs = 0.0;
  double classifyFastMs = 0.0;
  std::uint64_t referenceHash = 0xCBF29CE484222325ULL;
  std::uint64_t fastHash = 0xCBF29CE484222325ULL;
  int blocked = 0;
  for (const int group : {0, 1}) {
    const auto& results = groups[group];
    std::vector<std::optional<measure::BlockPageMatch>> referenceMatches(
        results.size());
    const double referenceMs = bestOf(reps, [&] {
      for (std::size_t i = 0; i < results.size(); ++i)
        referenceMatches[i] =
            measure::classifyBlockPageReference(results[i], patterns);
    });
    std::vector<std::optional<measure::BlockPageMatch>> fastMatches(
        results.size());
    const double fastMs = bestOf(reps, [&] {
      for (std::size_t i = 0; i < results.size(); ++i)
        fastMatches[i] = measure::classifyBlockPage(results[i]);
    });
    for (const auto& match : fastMatches)
      if (match) ++blocked;

    const std::string name = group == 0 ? "classify_benign" : "classify_blockpage";
    const double traces = static_cast<double>(std::max<std::size_t>(1, results.size()));
    const auto groupReferenceHash = hashMatches(referenceMatches);
    const auto groupFastHash = hashMatches(fastMatches);
    out[name + "_traces"] =
        report::Json::number(static_cast<std::int64_t>(results.size()));
    out[name + "_reference_ns"] = report::Json::number(referenceMs * 1e6 / traces);
    out[name + "_fast_ns"] = report::Json::number(fastMs * 1e6 / traces);
    out[name + "_hash_equal"] =
        report::Json::boolean(groupReferenceHash == groupFastHash);
    classifyReferenceMs += referenceMs;
    classifyFastMs += fastMs;
    referenceHash = fnv1a64(hex(groupReferenceHash), referenceHash);
    fastHash = fnv1a64(hex(groupFastHash), fastHash);
  }

  out["classify_blocked"] = report::Json::number(std::int64_t{blocked});
  out["classify_reference_ms"] = report::Json::number(classifyReferenceMs);
  out["classify_fast_ms"] = report::Json::number(classifyFastMs);
  out["classify_speedup"] =
      report::Json::number(classifyReferenceMs / classifyFastMs);
  out["classify_reference_hash"] = report::Json::string(hex(referenceHash));
  out["classify_fast_hash"] = report::Json::string(hex(fastHash));
  out["classify_hash_equal"] = report::Json::boolean(referenceHash == fastHash);

  // --- effective categories (the per-intercept lookup): tree vs flat ----
  auto workload = makeCategorizeWorkload(urls, rng);

  std::uint64_t categorizeReferenceHash = 0;
  const double categorizeReferenceMs = bestOf(reps, [&] {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::size_t i = 0; i < workload.probes.size(); ++i) {
      // Old Deployment::effectiveCategories shape: two set-valued lookups
      // merged into a third set, all freshly allocated per request.
      std::set<filters::CategoryId> categories =
          workload.referenceCustom.categorize(workload.probes[i]);
      const auto synced = workload.referenceMaster.categorizeAsOf(
          workload.probes[i], workload.cutoffs[i]);
      categories.insert(synced.begin(), synced.end());
      for (const auto category : categories)
        h = (h ^ static_cast<std::uint64_t>(category)) * 0x100000001B3ULL;
      h = (h ^ 0xFFu) * 0x100000001B3ULL;
    }
    categorizeReferenceHash = h;
  });

  std::uint64_t categorizeFastHash = 0;
  const double categorizeFastMs = bestOf(reps, [&] {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    filters::CategorySet scratch;
    for (std::size_t i = 0; i < workload.probes.size(); ++i) {
      scratch.clear();
      workload.flatCustom.categorizeInto(workload.probes[i], scratch);
      workload.flatMaster.categorizeAsOfInto(workload.probes[i],
                                             workload.cutoffs[i], scratch);
      for (const auto category : scratch)
        h = (h ^ static_cast<std::uint64_t>(category)) * 0x100000001B3ULL;
      h = (h ^ 0xFFu) * 0x100000001B3ULL;
    }
    categorizeFastHash = h;
  });

  out["categorize_entries"] = report::Json::number(static_cast<std::int64_t>(
      workload.flatMaster.entryCount() + workload.flatCustom.entryCount()));
  out["categorize_reference_ms"] = report::Json::number(categorizeReferenceMs);
  out["categorize_fast_ms"] = report::Json::number(categorizeFastMs);
  out["categorize_speedup"] =
      report::Json::number(categorizeReferenceMs / categorizeFastMs);
  out["categorize_reference_hash"] =
      report::Json::string(hex(categorizeReferenceHash));
  out["categorize_fast_hash"] = report::Json::string(hex(categorizeFastHash));
  out["categorize_hash_equal"] =
      report::Json::boolean(categorizeReferenceHash == categorizeFastHash);

  std::cerr << "urls=" << urls << " classify ref=" << classifyReferenceMs
            << "ms fast=" << classifyFastMs << "ms ("
            << classifyReferenceMs / classifyFastMs
            << "x)  categorize ref=" << categorizeReferenceMs
            << "ms fast=" << categorizeFastMs << "ms ("
            << categorizeReferenceMs / categorizeFastMs << "x)\n";
  return out;
}

// --- fetch-path layers ------------------------------------------------------

/// The campaign's Table 4 networks: a field vantage, its country's local
/// list, and the date the campaign tests it.
struct LayerNetwork {
  const char* vantage;
  const char* alpha2;
  util::CivilDate date;
};
const LayerNetwork kLayerNetworks[] = {
    {"field-etisalat", "AE", {2013, 5, 6}},
    {"field-yemennet", "YE", {2013, 4, 1}},
    {"field-du", "AE", {2013, 4, 1}},
    {"field-ooredoo", "QA", {2013, 8, 26}},
};

/// Per-call cost of each fetch-path layer on the paper's world: Url::parse
/// and World::resolve over the campaign's Table 4 URLs, one
/// Transport::fetch attempt of a prebuilt request from each network's field
/// vantage and from the lab, and Vendor::processUntil when nothing is due.
report::Json benchFetchLayers(int reps) {
  scenarios::PaperWorld paper(scenarios::kPaperSeed);
  auto& world = paper.world();
  const auto* lab = world.findVantage("lab-toronto");

  // Each network tests the global list, then its country's local list.
  std::vector<std::string> texts;
  std::vector<std::vector<http::Request>> requests;
  for (const auto& network : kLayerNetworks) {
    auto& slice = requests.emplace_back();
    for (const auto* list :
         {&paper.globalList(), &paper.localList(network.alpha2)})
      for (auto& text : list->urls()) {
        if (auto url = net::Url::parse(text))
          slice.push_back(http::Request::get(std::move(*url)));
        texts.push_back(std::move(text));
      }
  }
  // The lists are short, so each timed pass walks them kPasses times.
  constexpr int kPasses = 50;
  const double urls = static_cast<double>(texts.size()) * kPasses;

  std::size_t sink = 0;
  const double parseMs = bestOf(reps, [&] {
    for (int pass = 0; pass < kPasses; ++pass)
      for (const auto& text : texts)
        if (const auto url = net::Url::parse(text)) sink += url->host().size();
  });
  const double resolveMs = bestOf(reps, [&] {
    for (int pass = 0; pass < kPasses; ++pass)
      for (const auto& slice : requests)
        for (const auto& request : slice)
          if (const auto ip = world.resolve(request.url.host()))
            sink += ip->value();
  });

  // Each network's requests are fetched at its campaign date.
  simnet::Transport transport(world);
  double fetchMs = 0.0;
  double fetches = 0.0;
  for (std::size_t n = 0; n < requests.size(); ++n) {
    scenarios::advanceClockTo(world, kLayerNetworks[n].date);
    const auto* field = world.findVantage(kLayerNetworks[n].vantage);
    fetchMs += bestOf(reps, [&] {
      for (int pass = 0; pass < kPasses; ++pass)
        for (const auto& request : requests[n])
          for (const auto* vantage : {field, lab})
            sink += static_cast<std::size_t>(
                transport.fetch(*vantage, request).attempts);
    });
    fetches += 2.0 * static_cast<double>(requests[n].size()) * kPasses;
  }

  // A vendor holding a day-old queue and open submissions, asked to advance
  // to a time at which nothing is due yet: the call every intercepted
  // request makes.
  filters::Vendor vendor(filters::ProductKind::kNetsweeper, world);
  std::size_t queued = 0;
  for (const auto& slice : requests)
    for (const auto& request : slice) {
      if (queued++ % 50 == 0)
        (void)vendor.submitUrl(request.url, 1, "bench@example.org");
      else
        vendor.queueForCategorization(request.url, world.now());
    }
  constexpr int kIdleCalls = 200000;
  const auto idleAt = world.now() + 1;
  const double idleMs = bestOf(reps, [&] {
    for (int i = 0; i < kIdleCalls; ++i) vendor.processUntil(idleAt);
  });
  sink += vendor.pendingQueueSize();

  report::Json out = report::Json::object();
  out["urls"] = report::Json::number(static_cast<std::int64_t>(texts.size()));
  out["url_parse_ns"] = report::Json::number(parseMs * 1e6 / urls);
  out["resolve_ns"] = report::Json::number(resolveMs * 1e6 / urls);
  out["fetches"] = report::Json::number(fetches);
  out["fetch_attempt_ns"] = report::Json::number(fetchMs * 1e6 / fetches);
  out["vendor_pending"] = report::Json::number(
      static_cast<std::int64_t>(vendor.pendingQueueSize()));
  out["vendor_idle_process_ns"] =
      report::Json::number(idleMs * 1e6 / kIdleCalls);
  std::cerr << "layers: parse=" << parseMs * 1e6 / urls
            << "ns resolve=" << resolveMs * 1e6 / urls
            << "ns fetch=" << fetchMs * 1e6 / fetches
            << "ns vendor-idle=" << idleMs * 1e6 / kIdleCalls << "ns (sink "
            << sink % 10 << ")\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_fetch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::cerr << "usage: micro_fetch [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<int> sizes =
      quick ? std::vector<int>{1000} : std::vector<int>{1000, 5000, 20000};
  const int reps = quick ? 1 : 3;

  report::Json root = report::Json::object();
  root["bench"] = report::Json::string("micro_fetch");
  root["cores"] = report::Json::number(
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  root["reps"] = report::Json::number(std::int64_t{reps});

  report::Json runs = report::Json::array();
  for (const int urls : sizes) runs.push(benchAtSize(urls, reps));
  root["runs"] = std::move(runs);
  root["layers"] = benchFetchLayers(reps);

  std::ofstream file(outPath);
  if (!file) {
    std::cerr << "micro_fetch: cannot open " << outPath << " for writing\n";
    return 1;
  }
  file << root.dump(2) << "\n";
  std::cout << root.dump(2) << "\n";
  return 0;
}
