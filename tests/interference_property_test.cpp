// Property suite for the adversarial-interference layer and the
// quorum-robust confirmer (DESIGN.md §4.9).
//
// Contracts under test:
//  * A zero-rate InterferencePlan is byte-identical to no plan at all, and
//    the stock paper campaign digest is unchanged (interference is off by
//    default).
//  * RobustConfirmer::confirmList is byte-identical serial vs pooled and
//    across thread counts (collection is serial; derivation is pure).
//  * With a scan identification attached, a quorum >= 2 never confirms a
//    mimicked vendor — disagreement downgrades to kContested.
//  * A paced client never trips the rate-limit lockout on a clean world,
//    while the unpaced reference cadence demonstrably does.
//  * RobustMode::kReference agrees with kRobust on interference-free worlds
//    (the repo's reference-twin convention).
//  * The new FetchResult fields (kSlowDrip / kInterference / interference)
//    round-trip through the session JSON.
//  * Verdict memoization deactivates under an armed plan; the campaign
//    header round-trips the interference knobs; the interference campaign
//    digest is thread-count invariant.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "filters/category.h"
#include "measure/client.h"
#include "measure/robust.h"
#include "measure/session.h"
#include "scenarios/campaign.h"
#include "simnet/interference.h"
#include "simnet/origin_server.h"
#include "simnet/world.h"
#include "util/strings.h"

namespace {

using namespace urlf;
using measure::Verdict;
using simnet::InterferenceEffect;
using simnet::InterferenceProfile;
using simnet::MimicTemplate;

/// Ground-truth censor for the test ISP: serves a genuine Netsweeper
/// blockpage (the same bytes a mimicking censor would fake) for a fixed
/// host set. Everything an interference plan layers on top is deception.
class VendorBlockBox : public simnet::Middlebox {
 public:
  explicit VendorBlockBox(std::set<std::string> hosts)
      : hosts_(std::move(hosts)) {}

  std::string name() const override { return "tl-netsweeper"; }

  std::optional<simnet::Preempt> onRequest(simnet::PathContext& ctx) override {
    if (hosts_.count(util::toLower(ctx.request().url.host())) > 0)
      return simnet::Preempt::respond(
          simnet::mimicResponse(MimicTemplate::kNetsweeper));
    return std::nullopt;
  }

 private:
  std::set<std::string> hosts_;
};

struct QuorumWorld {
  std::unique_ptr<simnet::World> world;
  simnet::Isp* isp = nullptr;
  std::vector<const simnet::VantagePoint*> fields;
  const simnet::VantagePoint* lab = nullptr;
  std::vector<std::string> blockedUrls;
  std::vector<std::string> openUrls;

  std::vector<std::string> allUrls() const {
    std::vector<std::string> out = blockedUrls;
    out.insert(out.end(), openUrls.begin(), openUrls.end());
    return out;
  }
};

/// One ISP, `vantages` field vantage points inside it, one lab, two hosts
/// blocked by a genuine Netsweeper box and four open hosts.
QuorumWorld buildWorld(std::uint64_t seed, int vantages = 3) {
  QuorumWorld out;
  out.world = std::make_unique<simnet::World>(seed);
  auto& world = *out.world;

  world.createAs(64501, "TESTNET", "Testland Telecom", "TL",
                 {net::IpPrefix{net::Ipv4Addr{std::uint32_t{10} << 24}, 16}});
  out.isp = &world.createIsp("Testland Telecom", "TL", {64501});
  for (int v = 0; v < vantages; ++v)
    out.fields.push_back(&world.createVantage("field-" + std::to_string(v),
                                              "TL", out.isp));
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
  for (int i = 0; i < 2; ++i) {
    const std::string host = "blocked" + std::to_string(i) + ".example";
    addSite(host);
    blockedHosts.insert(host);
    out.blockedUrls.push_back("http://" + host + "/");
  }
  for (int i = 0; i < 4; ++i) {
    const std::string host = "open" + std::to_string(i) + ".example";
    addSite(host);
    out.openUrls.push_back("http://" + host + "/");
  }

  auto& box = world.makeMiddlebox<VendorBlockBox>(std::move(blockedHosts));
  out.isp->attachMiddlebox(box);
  return out;
}

/// Mimic pool excluding the deployed vendor: every mimicked blockpage is a
/// misattribution bait.
InterferenceProfile baitProfile(double rate) {
  InterferenceProfile profile;
  profile.tarpitRate = rate;
  profile.flakyRate = rate;
  profile.mimicryRate = rate;
  profile.mimicPool = {MimicTemplate::kSmartFilter, MimicTemplate::kBlueCoat,
                       MimicTemplate::kWebsense};
  return profile;
}

measure::RobustOptions robustDefaults() {
  measure::RobustOptions options;
  options.quorum = 2;
  options.paceBurst = 4;
  options.paceRefillPerHour = 2.0;
  options.attemptDeadlineHours = 6;
  options.hedgeAttempts = 2;
  options.identifiedProduct = filters::ProductKind::kNetsweeper;
  return options;
}

std::string toLine(const measure::RobustUrlVerdict& v) {
  std::string out = v.url;
  out += "|";
  out += toString(v.verdict);
  out += "|";
  out += v.product ? std::string(filters::toString(*v.product)) : "-";
  out += "|" + std::to_string(v.agreeing);
  out += v.mimicrySuspected ? "|mimic?" : "|clean";
  out += "|" + measure::exportSession(v.perVantage);
  return out;
}

// ------------------------------------------- default-off guarantees ----

TEST(InterferenceProperty, ZeroRatePlanByteIdenticalToNoPlan) {
  auto plain = buildWorld(7);
  auto armed = buildWorld(7);
  simnet::InterferencePlan plan(12345);
  plan.setDefaultProfile(InterferenceProfile{});  // every feature off
  plan.setIspProfile("Testland Telecom", InterferenceProfile{});
  armed.world->setInterferencePlan(plan);

  const auto urls = plain.allUrls();
  measure::Client plainClient(*plain.world, *plain.fields[0], *plain.lab);
  measure::Client armedClient(*armed.world, *armed.fields[0], *armed.lab);
  EXPECT_EQ(measure::exportSession(plainClient.testList(urls)),
            measure::exportSession(armedClient.testList(urls)));
}

TEST(InterferenceProperty, StockCampaignDigestUnchanged) {
  // Interference is off by default: the historical paper campaign digest
  // must not move. This is the same pin bench/campaign_e2e carries.
  const auto report = scenarios::runPaperCampaign(scenarios::CampaignOptions{});
  EXPECT_EQ(report.digestHex(), "f3c710fad3d1c2e1");
}

// ----------------------------------------- serial/pooled equivalence ----

TEST(InterferenceProperty, RobustSerialEqualsPooledAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    auto qw = buildWorld(99);
    qw.world->setInterferencePlan([] {
      simnet::InterferencePlan plan(4242);
      plan.setDefaultProfile(baitProfile(0.25));
      return plan;
    }());
    measure::RobustConfirmer confirmer(*qw.world, qw.fields, *qw.lab,
                                       robustDefaults());
    std::string lines;
    for (const auto& v : confirmer.confirmList(qw.allUrls(), threads))
      lines += toLine(v) + "\n";
    return lines;
  };

  const std::string serial = run(1);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}})
    EXPECT_EQ(serial, run(threads)) << "threads " << threads;
}

// --------------------------------------------------- mimicry defense ----

TEST(InterferenceProperty, QuorumNeverConfirmsMimickedVendor) {
  // The deployed vendor is Netsweeper and the mimic pool excludes it, so a
  // kBlocked verdict attributed to anything else is a successful deception.
  // With the scan identification attached it must never happen — at any
  // mimicry rate, on any seed.
  for (const std::uint64_t seed : {3u, 11u, 20131023u}) {
    for (const double rate : {0.5, 1.0}) {
      auto qw = buildWorld(seed);
      simnet::InterferencePlan plan(seed ^ 0xADF1ADF1ULL);
      InterferenceProfile profile;
      profile.mimicryRate = rate;
      profile.mimicPool = {MimicTemplate::kSmartFilter,
                           MimicTemplate::kBlueCoat,
                           MimicTemplate::kWebsense};
      plan.setDefaultProfile(profile);
      qw.world->setInterferencePlan(plan);

      measure::RobustConfirmer confirmer(*qw.world, qw.fields, *qw.lab,
                                         robustDefaults());
      for (const auto& v : confirmer.confirmList(qw.allUrls())) {
        if (v.verdict == Verdict::kBlocked) {
          ASSERT_TRUE(v.product.has_value()) << v.url;
          EXPECT_EQ(*v.product, filters::ProductKind::kNetsweeper)
              << v.url << " seed " << seed << " rate " << rate;
        }
      }
      // At rate 1.0 every intercepted fetch is mimicked: blocked URLs must
      // land kContested with mimicry flagged, never a confirmed wrong vendor.
      if (rate == 1.0) {
        measure::RobustConfirmer again(*qw.world, qw.fields, *qw.lab,
                                       robustDefaults());
        for (const auto& url : qw.blockedUrls) {
          const auto v = again.confirmUrl(url);
          EXPECT_EQ(v.verdict, Verdict::kContested) << url << " seed " << seed;
          EXPECT_TRUE(v.mimicrySuspected) << url;
          EXPECT_FALSE(v.product.has_value()) << url;
        }
      }
    }
  }
}

// ----------------------------------------------------- pacing defense ----

TEST(InterferenceProperty, PacedClientNeverTripsLockoutOnCleanWorlds) {
  InterferenceProfile lockoutOnly;
  lockoutOnly.lockoutThreshold = 3;
  lockoutOnly.lockoutWindowHours = 1;
  lockoutOnly.banHours = 12;

  // Unpaced reference cadence: every fetch lands at the same simulated
  // instant, so the per-vantage window fills immediately — the threat is
  // real.
  {
    auto qw = buildWorld(21);
    simnet::InterferencePlan plan(77);
    plan.setDefaultProfile(lockoutOnly);
    qw.world->setInterferencePlan(plan);
    measure::RobustOptions unpaced;
    unpaced.quorum = 2;
    unpaced.paceBurst = 0;  // pacing off
    measure::RobustConfirmer confirmer(*qw.world, qw.fields, *qw.lab, unpaced);
    bool sawLockout = false;
    for (const auto& v : confirmer.confirmList(qw.openUrls))
      for (const auto& row : v.perVantage)
        if (row.field.interference == InterferenceEffect::kLockout)
          sawLockout = true;
    EXPECT_TRUE(sawLockout) << "unpaced cadence should trip the lockout";
  }

  // Paced: the token bucket keeps every vantage under the threshold in any
  // window, so the same world yields all-accessible with zero interference.
  {
    auto qw = buildWorld(21);
    simnet::InterferencePlan plan(77);
    plan.setDefaultProfile(lockoutOnly);
    qw.world->setInterferencePlan(plan);
    measure::RobustOptions paced;
    paced.quorum = 2;
    paced.paceBurst = 2;
    paced.paceRefillPerHour = 1.0;
    measure::RobustConfirmer confirmer(*qw.world, qw.fields, *qw.lab, paced);
    for (const auto& v : confirmer.confirmList(qw.openUrls)) {
      EXPECT_EQ(v.verdict, Verdict::kAccessible) << v.url;
      for (const auto& row : v.perVantage)
        EXPECT_EQ(row.field.interference, InterferenceEffect::kNone) << v.url;
    }
  }
}

// ------------------------------------------------- reference twin ----

TEST(InterferenceProperty, ReferenceAgreesWithRobustOnInterferenceFreeWorlds) {
  for (const std::uint64_t seed : {5u, 77u}) {
    auto referenceWorld = buildWorld(seed);
    auto robustWorld = buildWorld(seed);

    measure::RobustOptions reference;
    reference.mode = measure::RobustMode::kReference;
    measure::RobustConfirmer referencePath(*referenceWorld.world,
                                           referenceWorld.fields,
                                           *referenceWorld.lab, reference);
    measure::RobustConfirmer robustPath(*robustWorld.world, robustWorld.fields,
                                        *robustWorld.lab, robustDefaults());

    const auto urls = referenceWorld.allUrls();
    const auto simple = referencePath.confirmList(urls);
    const auto robust = robustPath.confirmList(urls);
    ASSERT_EQ(simple.size(), robust.size());
    for (std::size_t i = 0; i < urls.size(); ++i) {
      EXPECT_EQ(simple[i].verdict, robust[i].verdict) << urls[i];
      EXPECT_EQ(simple[i].product, robust[i].product) << urls[i];
      EXPECT_FALSE(robust[i].mimicrySuspected) << urls[i];
    }
  }
}

// ------------------------------------------------- serialization ----

TEST(InterferenceProperty, SlowDripRoundTripsThroughSessionJson) {
  auto qw = buildWorld(31);
  simnet::InterferencePlan plan(13);
  InterferenceProfile tarpitOnly;
  tarpitOnly.tarpitRate = 1.0;
  plan.setDefaultProfile(tarpitOnly);
  qw.world->setInterferencePlan(plan);

  measure::RobustOptions options = robustDefaults();
  options.hedgeAttempts = 0;  // keep the slow-drip row
  measure::RobustConfirmer confirmer(*qw.world, qw.fields, *qw.lab, options);
  const auto verdict = confirmer.confirmUrl(qw.blockedUrls.front());
  ASSERT_FALSE(verdict.perVantage.empty());
  const auto& row = verdict.perVantage.front();
  ASSERT_EQ(row.field.signature, simnet::FailureSignature::kSlowDrip);
  ASSERT_EQ(row.field.cause, simnet::FailureCause::kInterference);
  ASSERT_EQ(row.field.interference, InterferenceEffect::kTarpit);

  const std::string text = measure::exportSession(verdict.perVantage);
  const auto back = measure::importSession(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), verdict.perVantage.size());
  EXPECT_EQ(back->front().field.signature,
            simnet::FailureSignature::kSlowDrip);
  EXPECT_EQ(back->front().field.cause, simnet::FailureCause::kInterference);
  EXPECT_EQ(back->front().field.interference, InterferenceEffect::kTarpit);
  EXPECT_EQ(measure::exportSession(*back), text);
}

// ------------------------------------------- memo + campaign gating ----

TEST(InterferenceProperty, VerdictMemoDeactivatesUnderInterference) {
  auto clean = buildWorld(41);
  measure::Client cleanClient(*clean.world, *clean.fields[0], *clean.lab);
  cleanClient.enableVerdictMemo(true);
  EXPECT_TRUE(cleanClient.verdictMemoActive());
  EXPECT_EQ(cleanClient.cacheability(), simnet::Cacheability::kShared);
  EXPECT_TRUE(cleanClient.cacheableChains());

  auto armed = buildWorld(41);
  simnet::InterferencePlan plan(9);
  plan.setDefaultProfile(baitProfile(0.05));
  armed.world->setInterferencePlan(plan);
  measure::Client armedClient(*armed.world, *armed.fields[0], *armed.lab);
  armedClient.enableVerdictMemo(true);
  EXPECT_FALSE(armedClient.verdictMemoActive());
  EXPECT_EQ(armedClient.cacheability(), simnet::Cacheability::kNone);
  EXPECT_FALSE(armedClient.cacheableChains());
}

TEST(InterferenceProperty, CampaignHeaderRoundTripsInterferenceKnobs) {
  scenarios::CampaignOptions options;
  options.world.interferenceRate = 0.07;
  options.world.interferenceSeed = 99;
  options.world.quorumVantages = 2;
  options.quorum = 3;
  options.hedge = true;

  const auto header = options.headerJson();
  const auto back = scenarios::CampaignOptions::fromHeaderJson(header);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().world.interferenceRate, 0.07);
  EXPECT_EQ(back.value().world.interferenceSeed, 99u);
  EXPECT_EQ(back.value().world.quorumVantages, 2);
  EXPECT_EQ(back.value().quorum, 3);
  EXPECT_TRUE(back.value().hedge);
}

TEST(InterferenceProperty, InterferenceCampaignDigestStableAcrossThreads) {
  scenarios::CampaignOptions options;
  options.world.interferenceRate = 0.05;
  options.world.quorumVantages = 1;
  options.quorum = 2;
  options.hedge = true;

  options.classifyThreads = 1;
  const auto serial = scenarios::runPaperCampaign(options);
  options.classifyThreads = 4;
  const auto pooled = scenarios::runPaperCampaign(options);
  EXPECT_EQ(serial.digestHex(), pooled.digestHex());
  EXPECT_EQ(serial.table4Blocked, pooled.table4Blocked);
}

}  // namespace
