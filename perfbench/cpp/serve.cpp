// serve: a resident CampaignServer behind a ServerLoop with two workers,
// driven by a closed loop of two in-process connections. Query sessions are
// drawn by seed over vantages × dates × 5-URL subsets of the global and
// local lists. Each round ends with one POST /v1/admin/recategorize write:
// a host that Bayanat Al-Oula's SmartFilter lets through gains the
// SmartFilter "Pornography" category, which that deployment blocks.
//
// Checks, after each round and untimed: every response is 200 and nothing
// is shed; every query answer equals the answer of a server with
// shareVerdicts off to the same query at the same epoch; a probe of the
// recategorized host reads accessible before its first recategorize and
// blocked after it.
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "http/wire.h"
#include "report/json.h"
#include "scenarios/paper_world.h"
#include "serve/channel.h"
#include "serve/loop.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace urlf;
using report::Json;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kPoolQueries = 50;  ///< two per vantage × date
constexpr std::size_t kQueriesPerClient = 100;  ///< per round
constexpr const char* kSnapshot = "paper";
constexpr const char* kFlipVantage = "field-bayanat";
constexpr const char* kFlipDate = "2013-05-06";
constexpr const char* kFlipCategory = "Pornography";

// field-yemennet is left out: its deployment drops ~25% of exchanges by a
// draw from the world's RNG, and pooled replicas carry that RNG from one
// session to the next, so its answers depend on which sessions a replica
// served before (with or without the shared store).
const char* const kVantages[] = {"field-etisalat", "field-du",
                                 "field-ooredoo", "field-bayanat",
                                 "field-nournet"};
const char* const kDates[] = {"2012-09-15", "2013-01-14", "2013-04-01",
                              "2013-05-06", "2013-08-26"};

http::Request post(const std::string& path, const Json& body) {
  http::Request request;
  request.method = "POST";
  request.url = *net::Url::parse("http://campaigns.sim" + path);
  request.headers.set("Content-Type", "application/json");
  request.body = body.dump();
  return request;
}

Json queryBody(const std::string& vantage, const std::string& date,
               const std::vector<std::string>& urls) {
  Json body = Json::object();
  body["kind"] = Json::string("query");
  body["snapshot"] = Json::string(kSnapshot);
  body["vantage"] = Json::string(vantage);
  body["date"] = Json::string(date);
  Json list = Json::array();
  for (const auto& url : urls) list.push(Json::string(url));
  body["urls"] = std::move(list);
  return body;
}

Json recategorizeBody(const std::string& host) {
  Json body = Json::object();
  body["snapshot"] = Json::string(kSnapshot);
  body["product"] =
      Json::string(std::string(filters::toString(filters::ProductKind::kSmartFilter)));
  body["host"] = Json::string(host);
  body["category"] = Json::string(kFlipCategory);
  return body;
}

/// The "digest" field of a query response ("" when absent).
std::string digestOf(const http::Response& response) {
  const auto parsed = Json::parse(response.body);
  const auto* digest = parsed ? parsed->find("digest") : nullptr;
  return digest && digest->asString() ? *digest->asString() : std::string();
}

/// Verdict of the first result row ("" when absent).
std::string firstVerdict(const http::Response& response) {
  const auto parsed = Json::parse(response.body);
  const auto* results = parsed ? parsed->find("results") : nullptr;
  const auto* rows = results ? results->asArray() : nullptr;
  if (rows == nullptr || rows->empty()) return {};
  const auto* verdict = rows->front().find("verdict");
  return verdict && verdict->asString() ? *verdict->asString() : std::string();
}

/// Inputs drawn from the seed: the query pool, each round's query order,
/// and the hosts the recategorize writes flip.
struct Plan {
  std::vector<Json> pool;
  std::vector<std::string> flipHosts;  ///< hosts of kFlipUrls, in order
  std::vector<std::string> flipUrls;
  std::uint64_t seed = 0;

  /// Pool indices client `c` sends in round `r`.
  [[nodiscard]] std::vector<std::size_t> round(int r, std::size_t c) const {
    util::Rng rng(seed ^ (static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15ULL) ^
                  (c + 1));
    std::vector<std::size_t> out(kQueriesPerClient);
    for (auto& index : out) index = rng.uniform(0, kPoolQueries - 1);
    return out;
  }
  [[nodiscard]] const std::string& flipHost(int r) const {
    return flipHosts[static_cast<std::size_t>(r) % flipHosts.size()];
  }
  [[nodiscard]] const std::string& flipUrl(int r) const {
    return flipUrls[static_cast<std::size_t>(r) % flipUrls.size()];
  }
};

Plan makePlan(std::uint64_t seed) {
  Plan plan;
  plan.seed = seed;
  scenarios::PaperWorld paper;
  util::Rng rng(seed);
  // Every vantage × date pair gets the same share of the pool, so the
  // seed changes which URLs are asked, not how much work the mix holds.
  for (std::size_t i = 0; i < kPoolQueries; ++i) {
    const std::size_t cell = i % (std::size(kVantages) * std::size(kDates));
    const std::string vantage = kVantages[cell % std::size(kVantages)];
    const std::string date = kDates[cell / std::size(kVantages)];
    const auto* field = paper.world().findVantage(vantage);
    std::vector<std::string> candidates = paper.globalList().urls();
    for (auto& url : paper.localList(field->countryAlpha2).urls())
      candidates.push_back(std::move(url));
    std::vector<std::string> urls;
    while (urls.size() < 5) {
      const auto& url = candidates[rng.uniform(0, candidates.size() - 1)];
      bool seen = false;
      for (const auto& have : urls) seen = seen || have == url;
      if (!seen) urls.push_back(url);
    }
    plan.pool.push_back(queryBody(vantage, date, urls));
  }

  // Flip candidates: global-list URLs a sharing-off server answers
  // accessible from Bayanat at epoch 0, in seeded order.
  serve::CampaignServer reference({.workers = 1, .shareVerdicts = false});
  reference.addSnapshot(kSnapshot);
  auto urls = paper.globalList().urls();
  for (std::size_t i = urls.size(); i > 1; --i)
    std::swap(urls[i - 1], urls[rng.uniform(0, i - 1)]);
  for (const auto& url : urls) {
    const auto response = reference.handle(
        post("/v1/session", queryBody(kFlipVantage, kFlipDate, {url})));
    if (firstVerdict(response) != "accessible") continue;
    const auto parsed = net::Url::parse(url);
    if (!parsed) continue;
    bool seen = false;
    for (const auto& host : plan.flipHosts) seen = seen || host == parsed->host();
    if (seen) continue;
    plan.flipHosts.push_back(parsed->host());
    plan.flipUrls.push_back(url);
  }
  if (plan.flipHosts.empty())
    throw std::runtime_error("no host is accessible from " +
                             std::string(kFlipVantage));
  return plan;
}

/// One answered request, kept for the checks.
struct Answer {
  std::size_t pool = 0;  ///< pool index; kPoolQueries for probes,
                         ///< kPoolQueries + 1 for the recategorize write
  int status = 0;
  std::string digest;
  std::string verdict;  ///< probes only
  bool probeAfter = false;
};

struct Live {
  explicit Live(const serve::ServerConfig& config)
      : server(config), loop(server) {
    server.addSnapshot(kSnapshot);
    for (std::size_t c = 0; c < kClients; ++c)
      connections.push_back(loop.connect());
  }
  ~Live() { loop.stop(); }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  serve::CampaignServer server;
  serve::ServerLoop loop;
  std::vector<std::shared_ptr<serve::Connection>> connections;
};

serve::ServerConfig liveConfig() {
  serve::ServerConfig config;
  config.workers = kWorkers;
  config.maxQueued = 8;
  config.classifyThreads = 1;
  config.shareVerdicts = true;
  return config;
}

/// Send one request and record its answer and latency.
Answer exchange(serve::Connection& connection, const http::Request& request,
                std::vector<double>& latencies) {
  Answer answer;
  const auto start = Clock::now();
  auto response = connection.roundTrip(request);
  latencies.push_back(msSince(start));
  if (!response.ok()) return answer;
  answer.status = response.value().statusCode;
  answer.digest = digestOf(response.value());
  answer.verdict = firstVerdict(response.value());
  return answer;
}

/// One round on the live server: a probe of the round's flip URL, both
/// clients' queries, the recategorize write, and the probe again.
void runRound(Live& live, const Plan& plan, int r, std::vector<double>& latencies,
              std::vector<Answer>& answers) {
  const auto probe =
      post("/v1/session", queryBody(kFlipVantage, kFlipDate, {plan.flipUrl(r)}));
  auto before = exchange(*live.connections[0], probe, latencies);
  before.pool = kPoolQueries;
  answers.push_back(before);

  std::vector<std::vector<double>> clientLatencies(kClients);
  std::vector<std::vector<Answer>> clientAnswers(kClients);
  const auto client = [&](std::size_t c) {
    for (const auto index : plan.round(r, c)) {
      auto answer = exchange(*live.connections[c],
                             post("/v1/session", plan.pool[index]),
                             clientLatencies[c]);
      answer.pool = index;
      clientAnswers[c].push_back(std::move(answer));
    }
  };
  std::thread second(client, 1);
  client(0);
  second.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    latencies.insert(latencies.end(), clientLatencies[c].begin(),
                     clientLatencies[c].end());
    answers.insert(answers.end(), clientAnswers[c].begin(),
                   clientAnswers[c].end());
  }

  auto write = exchange(*live.connections[0],
                        post("/v1/admin/recategorize",
                             recategorizeBody(plan.flipHost(r))),
                        latencies);
  write.pool = kPoolQueries + 1;
  answers.push_back(write);

  auto after = exchange(*live.connections[0], probe, latencies);
  after.pool = kPoolQueries;
  after.probeAfter = true;
  answers.push_back(after);
}

/// Checks one round's answers against a sharing-off server that has seen
/// the same writes, then applies the round's write to it. Rounds are
/// checked as they finish, so no run keeps more than one round of answers.
class RoundChecker {
 public:
  RoundChecker()
      : reference_({.workers = 1,
                    .maxQueued = 8,
                    .classifyThreads = 1,
                    .shareVerdicts = false}) {
    reference_.addSnapshot(kSnapshot);
  }

  void check(Outcome& outcome, const Plan& plan, int r,
             const std::vector<Answer>& answers) {
    std::map<std::size_t, std::string> expected;
    for (const auto& answer : answers) {
      ++outcome.attempted;
      if (answer.status != 200) ++outcome.failed;
      if (answer.pool < kPoolQueries) {
        auto it = expected.find(answer.pool);
        if (it == expected.end())
          it = expected
                   .emplace(answer.pool,
                            digestOf(reference_.handle(post(
                                "/v1/session", plan.pool[answer.pool]))))
                   .first;
        outcome.expect(answer.digest == it->second,
                       "shared-store answer equals the sharing-off answer");
      } else if (answer.pool == kPoolQueries) {
        const bool wasFlipped =
            answer.probeAfter || flipped_.contains(plan.flipHost(r));
        outcome.expect(
            answer.verdict == (wasFlipped ? "blocked" : "accessible"),
            "recategorized host flips from accessible to blocked");
      } else {
        const auto response = reference_.handle(post(
            "/v1/admin/recategorize", recategorizeBody(plan.flipHost(r))));
        outcome.expect(response.statusCode == 200,
                       "reference recategorize succeeds");
        flipped_.insert(plan.flipHost(r));
      }
    }
  }

 private:
  serve::CampaignServer reference_;
  std::set<std::string> flipped_;
};

}  // namespace

Outcome serveUntraced(const RunConfig& config) {
  Outcome outcome;
  Timing timing;
  const Plan plan = makePlan(config.seed);

  // Set-up: server, loop, connections, and a warm-up pass that sends every
  // pool query once (pooled replicas built, shared store filled).
  std::unique_ptr<Live> live;
  timeSetups(9, timing, [&] {
    live.reset();
    live = std::make_unique<Live>(liveConfig());
    std::vector<double> ignored;
    for (const auto& body : plan.pool)
      (void)exchange(*live->connections[0], post("/v1/session", body), ignored);
  });

  // Each round is timed, then checked untimed before the next starts.
  RoundChecker checker;
  double elapsed = 0.0;
  for (int round = 0; elapsed < config.seconds; ++round) {
    std::vector<Answer> answers;
    const auto start = Clock::now();
    runRound(*live, plan, round, timing.opMs, answers);
    elapsed += secondsSince(start);
    timing.roundEnds.push_back(timing.opMs.size());
    checker.check(outcome, plan, round, answers);
  }
  timing.windowSeconds = elapsed;
  addEndToEnd(outcome, timing);
  outcome.expect(live->server.stats().admission.shed == 0, "nothing is shed");
  outcome.expect(outcome.failed == 0, "every response is 200");
  return outcome;
}

void serveTraced(const RunConfig& config, Outcome& outcome) {
  constexpr int kRounds = 4;
  const Plan plan = makePlan(config.seed);

  // Untraced and traced rounds alternate on two servers, so warm-up
  // favours neither. Both send every query from one connection. A third
  // server takes the drill-down's direct submits, so the traced server
  // sees exactly the untraced server's request stream.
  Live plain(liveConfig());
  Live live(liveConfig());
  Live side(liveConfig());
  Tracer tracer;
  double untracedMs = 0.0;
  double tracedMs = 0.0;
  double pooled = 0.0;
  std::uint64_t op = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t c = 0; c < kClients; ++c)
      for (const auto index : plan.round(r, c)) {
        const auto start = Clock::now();
        (void)plain.connections[0]->roundTrip(
            post("/v1/session", plan.pool[index]));
        untracedMs += msSince(start);
      }
    (void)plain.connections[0]->roundTrip(
        post("/v1/admin/recategorize", recategorizeBody(plan.flipHost(r))));

    for (std::size_t c = 0; c < kClients; ++c) {
      for (const auto index : plan.round(r, c)) {
        tracer.beginOp(op++);
        const auto request = post("/v1/session", plan.pool[index]);
        const auto start = Clock::now();
        {
          const auto span = tracer.span("serve.roundtrip");
          const auto response = live.connections[0]->roundTrip(request);
          ++outcome.attempted;
          if (!response.ok() || response.value().statusCode != 200)
            ++outcome.failed;
        }
        tracedMs += msSince(start);

        // Drill-down on the same request: framing, session parse, and
        // CampaignServer::submit without the loop.
        const auto drill = tracer.span("serve.drilldown");
        auto wire = request;
        wire.headers.set("Host", wire.url.host());
        wire.headers.set("Content-Length", std::to_string(wire.body.size()));
        const std::string bytes = http::serialize(wire);
        {
          const auto span = tracer.span("http.frame");
          const auto frame = http::messageFrame(bytes);
          if (frame.state != http::Frame::State::kComplete)
            tracer.count("http.frame.bad", 1);
        }
        {
          const auto span = tracer.span("serve.session_parse");
          const auto body = serve::bodyJson(request);
          if (!body || !serve::SessionRequest::parse(*body).ok())
            tracer.count("serve.session_parse.bad", 1);
        }
        std::mutex mutex;
        std::condition_variable done;
        bool finished = false;
        std::int64_t endNs = 0;
        const auto startNs = tracer.nowNs();
        side.server.submit(request, [&](http::Response) {
          std::lock_guard<std::mutex> lock(mutex);
          endNs = tracer.nowNs();
          finished = true;
          done.notify_all();
        });
        std::unique_lock<std::mutex> lock(mutex);
        done.wait(lock, [&] { return finished; });
        tracer.record("serve.submit", startNs, endNs);
      }
    }
    pooled += static_cast<double>(live.server.stats().pooledWorlds);
    (void)side.connections[0]->roundTrip(
        post("/v1/admin/recategorize", recategorizeBody(plan.flipHost(r))));
    tracer.beginOp(op++);
    const auto span = tracer.span("serve.recategorize");
    const auto response = live.connections[0]->roundTrip(
        post("/v1/admin/recategorize", recategorizeBody(plan.flipHost(r))));
    ++outcome.attempted;
    if (!response.ok() || response.value().statusCode != 200) ++outcome.failed;
  }
  const auto stats = live.server.stats();
  if (!config.traceDir.empty()) tracer.write(config.traceDir + "/serve.jsonl");
  outcome.expect(tracer.counted("http.frame.bad") == 0 &&
                     tracer.counted("serve.session_parse.bad") == 0,
                 "traced requests frame and parse");

  const auto queries = static_cast<std::uint64_t>(kRounds * kClients *
                                                  kQueriesPerClient);
  addOverhead(outcome, "serve", untracedMs, tracedMs, queries);
  addLayer(outcome, tracer, "http.frame", "http.frame_us", "us");
  addLayer(outcome, tracer, "serve.session_parse", "serve.session_parse_us",
           "us");
  addLayer(outcome, tracer, "serve.submit", "serve.submit_us", "us");
  const auto layers = tracer.layers();
  const double roundTripUs = layers.at("serve.roundtrip").totalNs /
                             static_cast<double>(queries) * 1e-3;
  const double submitUs = layers.at("serve.submit").totalNs /
                          static_cast<double>(queries) * 1e-3;
  outcome.add("serve.loop_us", roundTripUs - submitUs, "us", queries);
  // Submitted sessions also hit the store, so count over all of them.
  const auto lookups = stats.memo.hits + stats.memo.misses;
  outcome.add("serve.shared_hits", static_cast<double>(stats.memo.hits),
              "count", lookups);
  outcome.add("serve.shared_misses", static_cast<double>(stats.memo.misses),
              "count", lookups);
  addLayer(outcome, tracer, "serve.recategorize", "serve.recategorize_us", "us");
  // Pooled replicas just before each recategorize (which empties the pool).
  outcome.add("serve.pooled_worlds", pooled / kRounds, "count", kRounds);
}

}  // namespace perfbench
