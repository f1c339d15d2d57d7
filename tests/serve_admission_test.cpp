// Admission control for the resident campaign server (DESIGN.md §4.6).
// Every decision happens at submit time on the caller's thread under one
// lock, so shedding is deterministic at any worker-pool width — these tests
// drive capacity to the edge with hold sessions (worker slots parked until
// released) and assert exact shed behavior with no sleeps or polling.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "http/message.h"
#include "report/json.h"
#include "serve/admission.h"
#include "serve/channel.h"
#include "serve/loop.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace urlf;
using serve::AdmissionController;
using Decision = serve::AdmissionController::Decision;
using report::Json;

http::Request post(const std::string& path, const Json& body) {
  http::Request request;
  request.method = "POST";
  request.url = *net::Url::parse("http://campaigns.sim" + path);
  request.headers.set("Content-Type", "application/json");
  request.body = body.dump();
  return request;
}

Json holdBody(const std::string& token) {
  Json body = Json::object();
  body["kind"] = Json::string("hold");
  body["token"] = Json::string(token);
  return body;
}

TEST(AdmissionControllerTest, DeterministicDecisionSequence) {
  AdmissionController admission(/*maxInFlight=*/2, /*maxQueued=*/1);

  EXPECT_EQ(admission.tryAdmit(), Decision::kRun);
  EXPECT_EQ(admission.tryAdmit(), Decision::kRun);
  EXPECT_EQ(admission.tryAdmit(), Decision::kQueue);
  EXPECT_EQ(admission.tryAdmit(), Decision::kShed);
  EXPECT_EQ(admission.tryAdmit(), Decision::kShed);

  auto stats = admission.stats();
  EXPECT_EQ(stats.inFlight, 2u);
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 0u);

  // One in-flight session finishes; the queued one starts; a new arrival
  // takes the freed queue slot instead of being shed.
  admission.onComplete();
  admission.onStart();
  EXPECT_EQ(admission.tryAdmit(), Decision::kQueue);

  stats = admission.stats();
  EXPECT_EQ(stats.inFlight, 2u);
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(AdmissionControllerTest, ZeroQueueShedsImmediatelyAtCapacity) {
  AdmissionController admission(/*maxInFlight=*/1, /*maxQueued=*/0);
  EXPECT_EQ(admission.tryAdmit(), Decision::kRun);
  EXPECT_EQ(admission.tryAdmit(), Decision::kShed);
  admission.onComplete();
  EXPECT_EQ(admission.tryAdmit(), Decision::kRun);
}

TEST(ServeAdmissionTest, ServerShedsPastCapacityWithDistinctStatus) {
  // workers=2 in-flight slots + 1 queue slot = 3 admitted holds; the 4th
  // must shed synchronously with the marker body.
  serve::CampaignServer server({.workers = 2, .maxQueued = 1});

  std::vector<std::promise<http::Response>> slots(3);
  std::vector<std::future<http::Response>> futures;
  for (auto& slot : slots) futures.push_back(slot.get_future());

  const std::string tokens[] = {"a", "b", "c"};
  for (std::size_t i = 0; i < 3; ++i) {
    server.submit(post("/v1/session", holdBody(tokens[i])),
                  [&slot = slots[i]](http::Response response) {
                    slot.set_value(std::move(response));
                  });
  }
  // All admission already happened on THIS thread inside submit — no need
  // to wait for workers to pick the holds up.
  auto stats = server.stats();
  EXPECT_EQ(stats.admission.admitted, 3u);
  EXPECT_EQ(stats.admission.shed, 0u);

  std::promise<http::Response> shedSlot;
  auto shedFuture = shedSlot.get_future();
  server.submit(post("/v1/session", holdBody("d")),
                [&shedSlot](http::Response response) {
                  shedSlot.set_value(std::move(response));
                });

  // The shed callback fires inside submit, before any release.
  const auto shed = shedFuture.get();
  EXPECT_EQ(shed.statusCode, 503);
  const auto shedBody = Json::parse(shed.body);
  ASSERT_TRUE(shedBody.has_value());
  EXPECT_EQ(*shedBody->find("error")->asString(), serve::kShedMarker);

  for (const auto& token : tokens) server.releaseHold(token);
  for (auto& future : futures) {
    const auto response = future.get();
    EXPECT_EQ(response.statusCode, 200) << response.body;
  }
  server.drain();

  stats = server.stats();
  EXPECT_EQ(stats.holdsCompleted, 3u);
  EXPECT_EQ(stats.admission.admitted, 3u);
  EXPECT_EQ(stats.admission.shed, 1u);
  EXPECT_EQ(stats.admission.completed, 3u);
  EXPECT_EQ(stats.admission.inFlight, 0u);
  EXPECT_EQ(stats.admission.queued, 0u);
}

TEST(ServeAdmissionTest, PreReleasedHoldsDoNotDeadlockTheQueue) {
  // Releasing before the hold is even submitted must still let it through:
  // release order cannot be assumed when clients race the queue.
  serve::CampaignServer server({.workers = 1, .maxQueued = 2});
  server.releaseHold("early");

  std::promise<http::Response> slot;
  auto future = slot.get_future();
  server.submit(post("/v1/session", holdBody("early")),
                [&slot](http::Response response) {
                  slot.set_value(std::move(response));
                });
  const auto response = future.get();
  EXPECT_EQ(response.statusCode, 200) << response.body;
  server.drain();
  EXPECT_EQ(server.stats().holdsCompleted, 1u);
}

TEST(ServeAdmissionTest, CapacityRecoversAfterDrain) {
  serve::CampaignServer server({.workers = 1, .maxQueued = 0});

  std::promise<http::Response> first;
  auto firstFuture = first.get_future();
  server.submit(post("/v1/session", holdBody("one")),
                [&first](http::Response response) {
                  first.set_value(std::move(response));
                });

  // Full: next submit sheds.
  std::promise<http::Response> second;
  auto secondFuture = second.get_future();
  server.submit(post("/v1/session", holdBody("two")),
                [&second](http::Response response) {
                  second.set_value(std::move(response));
                });
  EXPECT_EQ(secondFuture.get().statusCode, 503);

  server.releaseHold("one");
  EXPECT_EQ(firstFuture.get().statusCode, 200);
  server.drain();

  // The freed slot admits again — shedding is load, not a latch.
  server.releaseHold("three");
  std::promise<http::Response> third;
  auto thirdFuture = third.get_future();
  server.submit(post("/v1/session", holdBody("three")),
                [&third](http::Response response) {
                  third.set_value(std::move(response));
                });
  EXPECT_EQ(thirdFuture.get().statusCode, 200);
  server.drain();

  const auto stats = server.stats();
  EXPECT_EQ(stats.holdsCompleted, 2u);
  EXPECT_EQ(stats.admission.shed, 1u);
}

TEST(ServeAdmissionTest, MalformedSessionsAre400NotShed) {
  serve::CampaignServer server({.workers = 1});
  Json body = Json::object();
  body["kind"] = Json::string("campaign");  // no snapshot
  const auto response = server.handle(post("/v1/session", body));
  EXPECT_EQ(response.statusCode, 400);

  Json nonsense = Json::object();
  nonsense["kind"] = Json::string("no-such-kind");
  EXPECT_EQ(server.handle(post("/v1/session", nonsense)).statusCode, 400);

  const auto stats = server.stats();
  EXPECT_EQ(stats.badRequests, 2u);
  // Malformed sessions still pass through admission (admit-then-parse keeps
  // the fast path lock-free of parsing), but they complete immediately.
  EXPECT_EQ(stats.admission.inFlight, 0u);
}

TEST(ServeAdmissionTest, DeeplyNestedBodyIs400OverTheLoop) {
  // A megabyte of '[' once recursed the JSON parser off the end of the
  // worker's stack and took the whole server down.
  serve::CampaignServer server({.workers = 1});
  serve::ServerLoop loop(server);
  auto client = loop.connect();

  http::Request request;
  request.method = "POST";
  request.url = *net::Url::parse("http://campaigns.sim/v1/session");
  request.headers.set("Content-Type", "application/json");
  request.body = std::string(1 << 20, '[');
  const auto refused = client->roundTrip(request);
  ASSERT_TRUE(refused.ok()) << refused.error();
  EXPECT_EQ(refused.value().statusCode, 400);

  // The server is still there for the next request on the same connection.
  http::Request status;
  status.method = "GET";
  status.url = *net::Url::parse("http://campaigns.sim/v1/status");
  const auto alive = client->roundTrip(status);
  ASSERT_TRUE(alive.ok()) << alive.error();
  EXPECT_EQ(alive.value().statusCode, 200);
  loop.stop();
}

TEST(SessionRequestParseTest, IntegerFieldsMustBeInRange) {
  const auto campaign = [](const char* field, const Json& value) {
    Json body = Json::object();
    body["kind"] = Json::string("campaign");
    body["snapshot"] = Json::string("paper");
    body[field] = value;
    return serve::SessionRequest::parse(body);
  };

  const auto ok = campaign("classify_threads", Json::number(std::int64_t{4}));
  ASSERT_TRUE(ok) << ok.error();
  EXPECT_EQ(ok.value().classifyThreads, 4u);
  const auto armed = campaign("crash_after", Json::number(std::int64_t{7}));
  ASSERT_TRUE(armed) << armed.error();
  EXPECT_EQ(armed.value().crashAfter, 7);
  EXPECT_TRUE(campaign("classify_threads", Json::number(std::int64_t{0})));
  EXPECT_TRUE(campaign(
      "classify_threads",
      Json::number(static_cast<std::int64_t>(
          serve::SessionRequest::kMaxClassifyThreads))));
  EXPECT_TRUE(campaign(
      "crash_after",
      Json::number(std::int64_t{serve::SessionRequest::kMaxCrashAfter})));

  for (const char* field : {"classify_threads", "crash_after"}) {
    for (const double bad : {1e300, -1.0, -1e300, 2.5, 0.5, 4294967296.0}) {
      const auto refused = campaign(field, Json::number(bad));
      ASSERT_FALSE(refused) << field << "=" << bad;
      EXPECT_NE(refused.error().find(field), std::string::npos)
          << refused.error();
      EXPECT_EQ(refused.error().find('\n'), std::string::npos);
    }
  }
  EXPECT_FALSE(campaign(
      "classify_threads",
      Json::number(static_cast<std::int64_t>(
          serve::SessionRequest::kMaxClassifyThreads + 1))));
  EXPECT_FALSE(campaign(
      "crash_after",
      Json::number(std::int64_t{serve::SessionRequest::kMaxCrashAfter} + 1)));
}

TEST(ServeAdmissionTest, OutOfRangeIntegerIs400OverTheLoop) {
  serve::CampaignServer server({.workers = 1});
  serve::ServerLoop loop(server);
  auto client = loop.connect();

  http::Request request;
  request.method = "POST";
  request.url = *net::Url::parse("http://campaigns.sim/v1/session");
  request.headers.set("Content-Type", "application/json");
  request.body =
      R"({"kind": "campaign", "snapshot": "paper", "crash_after": 1e300})";
  const auto refused = client->roundTrip(request);
  ASSERT_TRUE(refused.ok()) << refused.error();
  EXPECT_EQ(refused.value().statusCode, 400);
  EXPECT_NE(refused.value().body.find("crash_after"), std::string::npos);

  request.body =
      R"({"kind": "campaign", "snapshot": "paper", "classify_threads": -1})";
  const auto negative = client->roundTrip(request);
  ASSERT_TRUE(negative.ok()) << negative.error();
  EXPECT_EQ(negative.value().statusCode, 400);
  EXPECT_NE(negative.value().body.find("classify_threads"), std::string::npos);
  loop.stop();
}

}  // namespace
