// Robustness ablation for the §4.9 interference defenses: interference
// rate x quorum x pacing.
//
// A dedicated world carries one ISP with a genuine Netsweeper blockpage
// censor (ground truth), three field vantages, eight blocked and eight
// open hosts. The interference plan arms EVERY adversarial feature: probe
// detection (hide windows), rate-limit lockout, tarpitting, flaky
// enforcement, and blockpage mimicry with a pool that excludes the real
// vendor — every mimicked page is misattribution bait.
//
// Each cell runs one confirmation pass and scores it against ground truth:
// false confirmations (open host handed a blocked verdict), misattributed
// vendors (kBlocked with a product other than Netsweeper), contested and
// missed-blocked counts, and the simulated hours the defense spent. The
// headline contract: at quorum >= 2 with pacing + hedging + the scan
// cross-check, false confirmations and misattributions are BOTH zero for
// every rate <= 0.10, while the reference path (single vantage, unpaced,
// no cross-check) demonstrably misattributes at the top rate.
//
// Emits BENCH_interference.json. Everything is deterministic: same seed,
// same grid.
//
// Usage: ablation_interference [--quick] [--out PATH]
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "filters/category.h"
#include "measure/robust.h"
#include "report/json.h"
#include "simnet/interference.h"
#include "simnet/origin_server.h"
#include "simnet/world.h"
#include "util/strings.h"

namespace {

using namespace urlf;
using measure::Verdict;
using simnet::InterferenceProfile;
using simnet::MimicTemplate;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeed = 20130920;
constexpr int kHostsPerClass = 8;
constexpr int kVantages = 3;

double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The genuine censor: serves the real Netsweeper blockpage template for a
/// fixed host set. Interference layers deception on top of this truth.
class VendorBlockBox : public simnet::Middlebox {
 public:
  explicit VendorBlockBox(std::set<std::string> hosts)
      : hosts_(std::move(hosts)) {}

  std::string name() const override { return "bench-netsweeper"; }

  std::optional<simnet::Preempt> onRequest(simnet::PathContext& ctx) override {
    if (hosts_.count(util::toLower(ctx.request().url.host())) > 0)
      return simnet::Preempt::respond(
          simnet::mimicResponse(MimicTemplate::kNetsweeper));
    return std::nullopt;
  }

 private:
  std::set<std::string> hosts_;
};

struct BenchWorld {
  std::unique_ptr<simnet::World> world;
  std::vector<const simnet::VantagePoint*> fields;
  const simnet::VantagePoint* lab = nullptr;
  /// Interleaved blocked/open so hide and ban windows straddle both kinds.
  std::vector<std::string> urls;
  std::set<std::string> blockedUrls;
};

BenchWorld buildWorld(double rate) {
  BenchWorld out;
  out.world = std::make_unique<simnet::World>(kSeed);
  auto& world = *out.world;

  world.createAs(64501, "TESTNET", "Testland Telecom", "TL",
                 {net::IpPrefix{net::Ipv4Addr{std::uint32_t{10} << 24}, 16}});
  auto& isp = world.createIsp("Testland Telecom", "TL", {64501});
  for (int v = 0; v < kVantages; ++v)
    out.fields.push_back(
        &world.createVantage("field-" + std::to_string(v), "TL", &isp));
  out.lab = &world.createVantage("lab-control", "CA", nullptr);

  const auto addSite = [&](const std::string& host) {
    auto& server = world.makeEndpoint<simnet::OriginServer>(host);
    simnet::Page page;
    page.title = host;
    page.body = "<h1>" + host + "</h1><p>benign content</p>";
    page.contentLabel = "benign";
    server.setPage("/", std::move(page));
    const auto ip = world.allocateAddress(64501);
    world.bind(ip, 80, server, /*externallyVisible=*/true);
    world.registerHostname(host, ip);
  };

  std::set<std::string> blockedHosts;
  for (int i = 0; i < kHostsPerClass; ++i) {
    const std::string blocked = "blocked" + std::to_string(i) + ".example";
    const std::string open = "open" + std::to_string(i) + ".example";
    addSite(blocked);
    addSite(open);
    blockedHosts.insert(blocked);
    out.blockedUrls.insert("http://" + blocked + "/");
    out.urls.push_back("http://" + blocked + "/");
    out.urls.push_back("http://" + open + "/");
  }
  auto& box = world.makeMiddlebox<VendorBlockBox>(std::move(blockedHosts));
  isp.attachMiddlebox(box);

  if (rate > 0.0) {
    simnet::InterferencePlan plan(kSeed ^ 0xADF1ADF1ULL);
    InterferenceProfile profile;
    profile.probeThreshold = 6;      // hide after 6 fetches/hour/vantage
    profile.probeWindowHours = 1;
    profile.hideHours = 24;
    profile.lockoutThreshold = 12;   // temp-ban after 12 fetches/hour
    profile.lockoutWindowHours = 1;
    profile.banHours = 12;
    profile.tarpitRate = rate;
    profile.flakyRate = rate;
    // Mimicry is the cheapest feature for a censor to run (a template swap,
    // no state, no collateral damage), so the profile arms it at 3x the
    // base rate.
    profile.mimicryRate = std::min(1.0, rate * 3.0);
    profile.mimicPool = {MimicTemplate::kSmartFilter, MimicTemplate::kBlueCoat,
                         MimicTemplate::kWebsense};
    plan.setDefaultProfile(profile);
    world.setInterferencePlan(plan);
  }
  return out;
}

struct CellStats {
  int falseConfirmations = 0;  ///< open host given kBlocked/kBlockedOther
  int misattributed = 0;       ///< kBlocked with a product != Netsweeper
  int contested = 0;
  int confirmedBlocked = 0;    ///< blocked host -> kBlocked(Netsweeper)
  int missedBlocked = 0;       ///< blocked host with any other verdict
  std::int64_t simHours = 0;
};

/// One grid cell. quorum == 1 && !paced is the historical reference path:
/// single vantage, no pacing, no deadline, no scan cross-check.
CellStats runCell(double rate, int quorum, bool paced) {
  auto bw = buildWorld(rate);
  measure::RobustOptions options;
  if (quorum == 1 && !paced) {
    options.mode = measure::RobustMode::kReference;
    options.quorum = 1;
  } else {
    options.mode = measure::RobustMode::kRobust;
    options.quorum = quorum;
    options.identifiedProduct = filters::ProductKind::kNetsweeper;
    if (paced) {
      options.paceBurst = 4;
      options.paceRefillPerHour = 2.0;
      options.attemptDeadlineHours = 6;
      options.hedgeAttempts = 2;
    }
  }

  const std::int64_t startHours = bw.world->now().hours();
  measure::RobustConfirmer confirmer(*bw.world, bw.fields, *bw.lab, options);
  const auto verdicts = confirmer.confirmList(bw.urls);

  CellStats stats;
  stats.simHours = bw.world->now().hours() - startHours;
  for (const auto& v : verdicts) {
    const bool truthBlocked = bw.blockedUrls.count(v.url) > 0;
    if (v.verdict == Verdict::kContested) ++stats.contested;
    if (!truthBlocked) {
      if (v.verdict == Verdict::kBlocked || v.verdict == Verdict::kBlockedOther)
        ++stats.falseConfirmations;
      continue;
    }
    if (v.verdict == Verdict::kBlocked &&
        v.product == filters::ProductKind::kNetsweeper) {
      ++stats.confirmedBlocked;
    } else {
      ++stats.missedBlocked;
      if (v.verdict == Verdict::kBlocked) ++stats.misattributed;
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_interference.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      outPath = argv[++i];
  }

  const std::vector<double> rates =
      quick ? std::vector<double>{0.0, 0.10}
            : std::vector<double>{0.0, 0.05, 0.10};
  const std::vector<int> quorums =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 3};
  const double maxRate = rates.back();

  report::Json out = report::Json::object();
  out["bench"] = report::Json::string("ablation_interference");
  out["quick"] = report::Json::boolean(quick);
  out["seed"] = report::Json::number(static_cast<std::int64_t>(kSeed));
  out["hosts"] = report::Json::number(std::int64_t{kHostsPerClass * 2});
  out["vantages"] = report::Json::number(std::int64_t{kVantages});

  report::Json cells = report::Json::array();
  int hardenedFalseConfirmations = 0;  // quorum >= 2, paced, rate <= 0.10
  int hardenedMisattributions = 0;
  int referenceMisattributionsAtMaxRate = 0;
  int referenceFalseAtMaxRate = 0;

  for (const double rate : rates) {
    for (const int quorum : quorums) {
      for (const bool paced : {false, true}) {
        std::cerr << "ablation_interference: rate " << rate << " quorum "
                  << quorum << (paced ? " paced" : " unpaced") << "...\n";
        const auto start = Clock::now();
        const auto stats = runCell(rate, quorum, paced);
        const double elapsed = millisSince(start);

        if (quorum >= 2 && paced) {
          hardenedFalseConfirmations += stats.falseConfirmations;
          hardenedMisattributions += stats.misattributed;
        }
        if (quorum == 1 && !paced && rate == maxRate) {
          referenceMisattributionsAtMaxRate = stats.misattributed;
          referenceFalseAtMaxRate = stats.falseConfirmations;
        }

        report::Json cell = report::Json::object();
        cell["rate"] = report::Json::number(rate);
        cell["quorum"] = report::Json::number(std::int64_t{quorum});
        cell["paced"] = report::Json::boolean(paced);
        cell["mode"] = report::Json::string(
            quorum == 1 && !paced ? "reference" : "robust");
        cell["false_confirmations"] =
            report::Json::number(std::int64_t{stats.falseConfirmations});
        cell["misattributed"] =
            report::Json::number(std::int64_t{stats.misattributed});
        cell["contested"] = report::Json::number(std::int64_t{stats.contested});
        cell["confirmed_blocked"] =
            report::Json::number(std::int64_t{stats.confirmedBlocked});
        cell["missed_blocked"] =
            report::Json::number(std::int64_t{stats.missedBlocked});
        cell["sim_hours"] = report::Json::number(stats.simHours);
        cell["ms"] = report::Json::number(elapsed);
        cells.push(std::move(cell));
      }
    }
  }
  out["cells"] = std::move(cells);
  // The headline contract: the hardened configuration (quorum >= 2 with
  // pacing, hedging, and the scan cross-check) never confirms a deception
  // at any swept rate, while the reference path is demonstrably deceived.
  out["hardened_false_confirmations"] =
      report::Json::number(std::int64_t{hardenedFalseConfirmations});
  out["hardened_misattributions"] =
      report::Json::number(std::int64_t{hardenedMisattributions});
  out["reference_misattributions_at_max_rate"] =
      report::Json::number(std::int64_t{referenceMisattributionsAtMaxRate});
  out["reference_false_confirmations_at_max_rate"] =
      report::Json::number(std::int64_t{referenceFalseAtMaxRate});

  const std::string text = out.dump(2);
  std::ofstream file(outPath);
  file << text << '\n';
  std::cout << text << '\n';
  std::cerr << "ablation_interference: wrote " << outPath << '\n';

  if (hardenedFalseConfirmations != 0 || hardenedMisattributions != 0) {
    std::cerr << "ablation_interference: DECEPTION CONFIRMED under the "
                 "hardened configuration\n";
    return 1;
  }
  if (referenceMisattributionsAtMaxRate == 0) {
    std::cerr << "ablation_interference: reference path was not deceived at "
                 "the top rate — the ablation shows nothing\n";
    return 1;
  }
  return 0;
}
