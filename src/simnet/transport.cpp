#include "simnet/transport.h"

#include <algorithm>
#include <span>

#include "util/strings.h"

namespace urlf::simnet {

std::string_view toString(FetchOutcome outcome) {
  switch (outcome) {
    case FetchOutcome::kOk: return "ok";
    case FetchOutcome::kDnsFailure: return "dns-failure";
    case FetchOutcome::kConnectFailure: return "connect-failure";
    case FetchOutcome::kTimeout: return "timeout";
    case FetchOutcome::kReset: return "reset";
    case FetchOutcome::kBadUrl: return "bad-url";
  }
  return "unknown";
}

std::string_view toString(FailureSignature signature) {
  switch (signature) {
    case FailureSignature::kNone: return "none";
    case FailureSignature::kEmptyDns: return "empty-dns";
    case FailureSignature::kRefused: return "refused";
    case FailureSignature::kRstBeforeBanner: return "rst-before-banner";
    case FailureSignature::kRstAfterRequest: return "rst-after-request";
    case FailureSignature::kTimeout: return "timeout";
    case FailureSignature::kSlowDrip: return "slow-drip";
  }
  return "unknown";
}

std::string_view toString(FailureCause cause) {
  switch (cause) {
    case FailureCause::kNone: return "none";
    case FailureCause::kOrganic: return "organic";
    case FailureCause::kFault: return "fault";
    case FailureCause::kOutage: return "outage";
    case FailureCause::kMiddlebox: return "middlebox";
    case FailureCause::kPacketFilter: return "packet-filter";
    case FailureCause::kInterference: return "interference";
  }
  return "unknown";
}

bool RetryPolicy::shouldRetry(FetchOutcome outcome) const {
  switch (outcome) {
    case FetchOutcome::kOk:
    case FetchOutcome::kBadUrl:
      return false;
    case FetchOutcome::kTimeout: return retryOnTimeout;
    case FetchOutcome::kReset: return retryOnReset;
    case FetchOutcome::kDnsFailure: return retryOnDns;
    case FetchOutcome::kConnectFailure: return retryOnConnectFailure;
  }
  return false;
}

std::int64_t RetryPolicy::backoffHours(int attempt) const {
  std::int64_t hours = std::max(0, initialBackoffHours);
  for (int i = 0; i < attempt; ++i) hours *= std::max(1, backoffMultiplier);
  return hours;
}

namespace {

/// One of PathStage's preempting hooks.
using Hook = std::optional<Preempt> (PathStage::*)(PathContext&);

/// The stages one fetch passes, in path order: the world-wide plans, then
/// the vantage ISP's packet filters and middleboxes.
struct Path {
  std::span<PathStage* const> head;
  std::span<PathStage* const> isp;
  const OutagePlan* outages = nullptr;

  /// Whether `stage` sits `hook` out on this fetch (`hook` is null for the
  /// response hook).
  [[nodiscard]] bool sitsOut(const PathStage& stage, Hook hook,
                             const PathContext& ctx) const {
    switch (stage.layer()) {
      case PathLayer::kWorld:
        return false;
      case PathLayer::kPacket:
        // The first forged answer wins the race against the resolver, and a
        // TLS payload is opaque to an on-path device.
        return (hook == &PathStage::onDns && ctx.ip) ||
               (hook == &PathStage::onRequest && ctx.syn.tls);
      case PathLayer::kHttp:
        // A censor the outage plan stopped, or that interference unplugged
        // for this flow, fails open: it neither intercepts nor
        // post-processes, exactly as if unplugged.
        return ctx.censorUnplugged ||
               (outages != nullptr &&
                outages->middleboxStopped(static_cast<const Middlebox&>(stage),
                                          ctx.world.now()));
    }
    return false;
  }

  /// Run `hook` on every stage in path order; the first preempt ends the
  /// attempt.
  std::optional<Preempt> run(Hook hook, PathContext& ctx) const {
    for (const auto stages : {head, isp})
      for (PathStage* stage : stages)
        if (!sitsOut(*stage, hook, ctx))
          if (auto preempt = (stage->*hook)(ctx)) return preempt;
    return std::nullopt;
  }

  /// The response's way back: every stage in reverse path order.
  void respond(PathContext& ctx, http::Response& response) const {
    for (const auto stages : {isp, head})
      for (auto it = stages.rbegin(); it != stages.rend(); ++it)
        if (!sitsOut(**it, nullptr, ctx)) (*it)->onResponse(ctx, response);
  }
};

Path pathOf(World& world, const VantagePoint& vantage) {
  return {world.headStages(),
          vantage.isp != nullptr ? vantage.isp->stages()
                                 : std::span<PathStage* const>{},
          world.outagePlan()};
}

FetchResult finish(const PathContext& ctx, Preempt end) {
  FetchResult result;
  result.outcome = end.outcome;
  result.response = std::move(end.response);
  result.error = std::move(end.error);
  result.injectedFault = ctx.injectedFault;
  result.signature = end.signature;
  result.cause = end.cause;
  result.interference = ctx.effect;
  return result;
}

}  // namespace

FetchResult Transport::fetchOnce(const VantagePoint& vantage,
                                 const http::Request& request,
                                 const FetchOptions& options, int attempt) {
  const Path path = pathOf(*world_, vantage);
  PathContext ctx(*world_, vantage, request, options.attemptBase + attempt,
                  options.attemptDeadlineHours);

  if (auto preempt = path.run(&PathStage::onDns, ctx))
    return finish(ctx, std::move(*preempt));
  if (!ctx.ip) ctx.ip = world_->resolve(request.url.host());
  if (!ctx.ip)
    return finish(ctx, {FetchOutcome::kDnsFailure, FailureSignature::kEmptyDns,
                        FailureCause::kOrganic,
                        "NXDOMAIN: " + request.url.host(), {}});

  const std::uint16_t port = request.url.effectivePort();
  const bool tls = util::iequals(request.url.scheme(), "https");
  const util::SimTime now = world_->now();
  ctx.syn = FlowSyn{request.url.host(), *ctx.ip, port, tls,
                    tls && !options.omitSni};
  ctx.policy = InterceptContext{
      path.outages != nullptr ? path.outages->policyTime(now) : now,
      &world_->rng()};
  // Flows are tracked lazily: worlds without packet filters never touch the
  // conntrack.
  if (vantage.isp != nullptr && vantage.isp->hasPacketFilters())
    world_->flows().track(
        FlowKey{vantage.name, std::string(ctx.syn.host), port}, now);

  if (auto preempt = path.run(&PathStage::onConnect, ctx))
    return finish(ctx, std::move(*preempt));
  if (auto preempt = path.run(&PathStage::onRequest, ctx)) {
    // Only a middlebox answers with a response; mimicry disguises it.
    if (preempt->response && ctx.interference != nullptr)
      world_->interferencePlan()->disguise(ctx, *preempt);
    return finish(ctx, std::move(*preempt));
  }

  HttpEndpoint* endpoint = world_->endpointAt(*ctx.ip, port);
  if (endpoint == nullptr)
    return finish(ctx, {FetchOutcome::kConnectFailure,
                        FailureSignature::kRefused, FailureCause::kOrganic,
                        "connection refused: " + ctx.ip->toString() + ":" +
                            std::to_string(port),
                        {}});
  http::Response response = endpoint->handle(ctx.request(), world_->now());
  path.respond(ctx, response);
  return finish(ctx, Preempt::respond(std::move(response)));
}

std::optional<net::Ipv4Addr> Transport::resolveFrom(
    const VantagePoint& vantage, std::string_view hostname) {
  http::Request query = http::Request::get(
      net::Url{"http", std::string(hostname), std::nullopt, "/", ""});
  PathContext ctx(*world_, vantage, query, 0, 0);
  Path path = pathOf(*world_, vantage);
  path.head = {};
  if (path.run(&PathStage::onDns, ctx)) return std::nullopt;
  return ctx.ip ? ctx.ip : world_->resolve(query.url.host());
}

Cacheability Transport::cacheability(const VantagePoint& vantage) const {
  const Path path = pathOf(*world_, vantage);
  Cacheability level = Cacheability::kShared;
  for (const auto stages : {path.head, path.isp})
    for (const PathStage* stage : stages)
      level = std::min(level, stage->cacheability(vantage));
  return level;
}

FetchResult Transport::fetchAttempt(const VantagePoint& vantage,
                                    const http::Request& request,
                                    const FetchOptions& options, int attempt) {
  FetchResult result = fetchOnce(vantage, request, options, attempt);
  if (!options.followRedirects) return result;

  // The request of the hop that answered: a relative Location resolves
  // against its URL, not against the first request's.
  const http::Request* current = &request;
  http::Request hop;
  int hops = 0;
  while (result.ok() && result.response->isRedirect() &&
         hops < options.maxRedirects) {
    const auto location = result.response->location();
    if (!location) break;

    std::optional<net::Url> target = net::Url::parse(*location);
    if (!target) {
      std::string path(*location);
      if (path.empty() || path.front() != '/') break;
      const std::size_t qmark = path.find('?');
      const net::Url& base = current->url;
      target = net::Url{base.scheme(), base.host(), base.explicitPort(),
                        qmark == std::string::npos ? path : path.substr(0, qmark),
                        qmark == std::string::npos ? "" : path.substr(qmark + 1)};
    }

    std::vector<http::Response> chain = std::move(result.redirectChain);
    chain.push_back(std::move(*result.response));
    hop = http::Request::get(std::move(*target));
    current = &hop;
    result = fetchOnce(vantage, hop, options, attempt);
    // Keep the accumulated chain regardless of the hop's outcome.
    chain.insert(chain.end(),
                 std::make_move_iterator(result.redirectChain.begin()),
                 std::make_move_iterator(result.redirectChain.end()));
    result.redirectChain = std::move(chain);
    ++hops;
  }
  return result;
}

FetchResult Transport::fetch(const VantagePoint& vantage,
                             const http::Request& request,
                             const FetchOptions& options) {
  const int maxAttempts = std::max(1, options.retry.maxAttempts);
  FetchResult result;
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    result = fetchAttempt(vantage, request, options, attempt);
    result.attempts = attempt + 1;
    if (attempt + 1 == maxAttempts) break;
    if (!options.retry.shouldRetry(result.outcome)) break;
    // Simulated-clock backoff between attempts; the whole world ages, so
    // retries see vendor-feed/license state as a real re-test would.
    world_->clock().advanceHours(options.retry.backoffHours(attempt));
  }
  return result;
}

FetchResult Transport::fetchUrl(const VantagePoint& vantage,
                                std::string_view urlText,
                                const FetchOptions& options) {
  auto url = net::Url::parse(urlText);
  if (!url) return badUrl(urlText);
  return fetch(vantage, http::Request::get(std::move(*url)), options);
}

FetchResult Transport::badUrl(std::string_view urlText) {
  FetchResult result;
  result.outcome = FetchOutcome::kBadUrl;
  result.error = "malformed URL: " + std::string(urlText);
  return result;
}

}  // namespace urlf::simnet
