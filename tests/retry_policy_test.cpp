#include <gtest/gtest.h>

#include "measure/session.h"
#include "simnet/fault.h"
#include "simnet/origin_server.h"
#include "simnet/transport.h"
#include "simnet/world.h"

namespace urlf::simnet {
namespace {

net::IpPrefix prefix(const char* text) {
  return net::IpPrefix::parse(text).value();
}

/// Always answers 403 with a block-page body — a deterministic "kOk but
/// blocked" outcome for no-retry assertions.
class BlockEverything : public Middlebox {
 public:
  std::string name() const override { return "block-everything"; }

  std::optional<Preempt> onRequest(PathContext&) override {
    return Preempt::respond(
        http::Response::make(http::Status::kForbidden, "<h1>denied</h1>"));
  }
};

class RetryFixture : public ::testing::Test {
 protected:
  RetryFixture() : world(99) {
    world.createAs(100, "ISP-AS", "Test ISP", "SA", {prefix("10.0.0.0/16")});
    world.createAs(200, "WEB-AS", "Web hosting", "US", {prefix("20.0.0.0/16")});
    isp = &world.createIsp("Test ISP", "SA", {100});
    field = &world.createVantage("field", "SA", isp);

    auto& server = world.makeEndpoint<OriginServer>("site.example");
    Page page;
    page.title = "Site";
    page.body = "<p>hello</p>";
    server.setPage("/", page);
    const auto ip = world.allocateAddress(200);
    world.bind(ip, 80, server, true);
    world.registerHostname("site.example", ip);
  }

  World world;
  Isp* isp = nullptr;
  VantagePoint* field = nullptr;
};

// ------------------------------------------------- RetryPolicy rules ----

TEST(RetryPolicy, DefaultClassification) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.shouldRetry(FetchOutcome::kOk));
  EXPECT_FALSE(policy.shouldRetry(FetchOutcome::kBadUrl));
  EXPECT_TRUE(policy.shouldRetry(FetchOutcome::kTimeout));
  EXPECT_TRUE(policy.shouldRetry(FetchOutcome::kReset));
  EXPECT_TRUE(policy.shouldRetry(FetchOutcome::kDnsFailure));
  EXPECT_FALSE(policy.shouldRetry(FetchOutcome::kConnectFailure));
}

TEST(RetryPolicy, FlagsDisableEachClass) {
  RetryPolicy policy;
  policy.retryOnTimeout = false;
  policy.retryOnReset = false;
  policy.retryOnDns = false;
  policy.retryOnConnectFailure = true;
  EXPECT_FALSE(policy.shouldRetry(FetchOutcome::kTimeout));
  EXPECT_FALSE(policy.shouldRetry(FetchOutcome::kReset));
  EXPECT_FALSE(policy.shouldRetry(FetchOutcome::kDnsFailure));
  EXPECT_TRUE(policy.shouldRetry(FetchOutcome::kConnectFailure));
  // kOk and kBadUrl stay non-retryable no matter the flags.
  EXPECT_FALSE(policy.shouldRetry(FetchOutcome::kOk));
  EXPECT_FALSE(policy.shouldRetry(FetchOutcome::kBadUrl));
}

TEST(RetryPolicy, BackoffDoublesFromInitial) {
  RetryPolicy policy;  // 1h initial, x2
  EXPECT_EQ(policy.backoffHours(0), 1);
  EXPECT_EQ(policy.backoffHours(1), 2);
  EXPECT_EQ(policy.backoffHours(2), 4);
  EXPECT_EQ(policy.backoffHours(3), 8);
}

TEST(RetryPolicy, BackoffHonorsCustomSchedule) {
  RetryPolicy policy;
  policy.initialBackoffHours = 3;
  policy.backoffMultiplier = 4;
  EXPECT_EQ(policy.backoffHours(0), 3);
  EXPECT_EQ(policy.backoffHours(1), 12);
  EXPECT_EQ(policy.backoffHours(2), 48);

  policy.initialBackoffHours = -5;  // clamped: time never goes backwards
  EXPECT_EQ(policy.backoffHours(0), 0);
  EXPECT_EQ(policy.backoffHours(4), 0);

  policy.initialBackoffHours = 2;
  policy.backoffMultiplier = 0;  // clamped to a constant schedule
  EXPECT_EQ(policy.backoffHours(0), 2);
  EXPECT_EQ(policy.backoffHours(3), 2);
}

// ------------------------------------------------- FaultPlan drawing ----

TEST_F(RetryFixture, ZeroRatePlanNeverFires) {
  const FaultPlan plan(42);
  for (int attempt = 0; attempt < 50; ++attempt)
    EXPECT_EQ(plan.roll(*field, "http://site.example/", attempt),
              FaultKind::kNone);
}

TEST_F(RetryFixture, SaturatedPlanAlwaysFires) {
  const FaultPlan plan(42, FaultRates::uniform(0.25));  // total = 1.0
  for (int attempt = 0; attempt < 50; ++attempt)
    EXPECT_NE(plan.roll(*field, "http://site.example/", attempt),
              FaultKind::kNone);
}

TEST_F(RetryFixture, RollIsPureAndKeyed) {
  const FaultPlan plan(7, FaultRates::uniform(0.1));
  const FaultPlan same(7, FaultRates::uniform(0.1));
  const FaultPlan other(8, FaultRates::uniform(0.1));

  bool anyDiffersAcrossSeeds = false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::string url =
        "http://site.example/p" + std::to_string(attempt);
    // Same key, same plan parameters: identical draw, call after call.
    EXPECT_EQ(plan.roll(*field, url, 0), plan.roll(*field, url, 0));
    EXPECT_EQ(plan.roll(*field, url, 0), same.roll(*field, url, 0));
    if (plan.roll(*field, url, 0) != other.roll(*field, url, 0))
      anyDiffersAcrossSeeds = true;
  }
  EXPECT_TRUE(anyDiffersAcrossSeeds);
}

TEST_F(RetryFixture, ScopePrecedenceIspOverCountryOverDefault) {
  FaultPlan plan(1, FaultRates::uniform(0.01));
  EXPECT_EQ(plan.ratesFor(*field), FaultRates::uniform(0.01));

  plan.setCountryRates("SA", FaultRates::uniform(0.05));
  EXPECT_EQ(plan.ratesFor(*field), FaultRates::uniform(0.05));

  plan.setIspRates("Test ISP", FaultRates::uniform(0.2));
  EXPECT_EQ(plan.ratesFor(*field), FaultRates::uniform(0.2));

  const VantagePoint elsewhere{"other", "YE", nullptr};
  EXPECT_EQ(plan.ratesFor(elsewhere), FaultRates::uniform(0.01));
}

// -------------------------------------- Transport x retry interaction ----

TEST_F(RetryFixture, ExhaustedRetriesAdvanceClockExactly) {
  FaultRates rates;
  rates.dnsFlap = 1.0;  // every attempt fails the same way
  world.setFaultPlan(FaultPlan(5, rates));

  FetchOptions options;
  options.retry.maxAttempts = 3;
  const auto before = world.clock().now();

  Transport transport(world);
  const auto result =
      transport.fetchUrl(*field, "http://site.example/", options);

  EXPECT_EQ(result.outcome, FetchOutcome::kDnsFailure);
  EXPECT_EQ(result.injectedFault, FaultKind::kDnsFlap);
  EXPECT_EQ(result.attempts, 3);
  // Backoff after attempts 0 and 1 only: 1h + 2h. No wait after the last.
  EXPECT_EQ(world.clock().now() - before, 3);
}

TEST_F(RetryFixture, SuccessOnRetryStopsTheLoop) {
  // Hunt for a seed where attempt 0 faults but attempt 1 runs clean; the
  // draw is a pure function of the key, so this search is deterministic.
  const auto rates = FaultRates::uniform(0.125);  // total = 0.5
  std::uint64_t chosen = 0;
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    const FaultPlan probe(seed, rates);
    if (probe.roll(*field, "http://site.example/", 0) != FaultKind::kNone &&
        probe.roll(*field, "http://site.example/", 1) == FaultKind::kNone) {
      chosen = seed;
      break;
    }
  }
  ASSERT_NE(chosen, 0u);
  world.setFaultPlan(FaultPlan(chosen, rates));

  FetchOptions options;
  options.retry.maxAttempts = 4;
  options.retry.retryOnConnectFailure = true;  // all fault kinds retryable

  Transport transport(world);
  const auto result =
      transport.fetchUrl(*field, "http://site.example/", options);

  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.injectedFault, FaultKind::kNone);
}

TEST_F(RetryFixture, BlockPageIsNeverRetried) {
  auto& box = world.makeMiddlebox<BlockEverything>();
  isp->attachMiddlebox(box);

  FetchOptions options;
  options.retry.maxAttempts = 5;
  const auto before = world.clock().now();

  Transport transport(world);
  const auto result =
      transport.fetchUrl(*field, "http://site.example/", options);

  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response->statusCode, 403);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(world.clock().now(), before);  // no backoff consumed
}

TEST_F(RetryFixture, BadUrlIsNeverRetried) {
  FetchOptions options;
  options.retry.maxAttempts = 5;
  const auto before = world.clock().now();

  Transport transport(world);
  const auto result = transport.fetchUrl(*field, "not a url", options);

  EXPECT_EQ(result.outcome, FetchOutcome::kBadUrl);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(world.clock().now(), before);
}

TEST_F(RetryFixture, InjectedFaultSurvivesSessionRoundTrip) {
  FaultRates rates;
  rates.timeout = 1.0;
  world.setFaultPlan(FaultPlan(5, rates));
  const auto& lab = world.createVantage("lab", "CA", nullptr);

  FetchOptions options;
  options.retry.maxAttempts = 2;
  measure::Client client(world, *field, lab, options);
  const std::vector<measure::UrlTestResult> results{
      client.testUrl("http://site.example/")};
  ASSERT_EQ(results[0].field.injectedFault, FaultKind::kTimeout);
  ASSERT_EQ(results[0].field.attempts, 2);

  const auto text = measure::exportSession(results, 2);
  const auto imported = measure::importSession(text);
  ASSERT_TRUE(imported.has_value());
  ASSERT_EQ(imported->size(), 1u);
  EXPECT_EQ((*imported)[0].field.injectedFault, FaultKind::kTimeout);
  EXPECT_EQ((*imported)[0].field.attempts, 2);
  // Round-trip is lossless: re-export reproduces the original bytes.
  EXPECT_EQ(measure::exportSession(*imported, 2), text);
}

TEST_F(RetryFixture, OrganicDnsFailureRetainsNoInjectedFault) {
  FetchOptions options;
  options.retry.maxAttempts = 2;

  Transport transport(world);
  const auto result =
      transport.fetchUrl(*field, "http://nonexistent.example/", options);

  EXPECT_EQ(result.outcome, FetchOutcome::kDnsFailure);
  EXPECT_EQ(result.injectedFault, FaultKind::kNone);
  EXPECT_EQ(result.attempts, 2);  // organic NXDOMAIN is still retried
}

}  // namespace
}  // namespace urlf::simnet
