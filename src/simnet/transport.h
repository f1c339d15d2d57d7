#ifndef URLF_SIMNET_TRANSPORT_H
#define URLF_SIMNET_TRANSPORT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "http/message.h"
#include "simnet/path_stage.h"
#include "simnet/world.h"

namespace urlf::simnet {

/// The result of fetching a URL from a vantage point.
struct FetchResult {
  FetchOutcome outcome = FetchOutcome::kOk;
  std::optional<http::Response> response;  ///< set when outcome == kOk
  /// Intermediate 3xx responses consumed while following redirects.
  std::vector<http::Response> redirectChain;
  std::string error;  ///< human-readable detail for non-kOk outcomes
  /// The injected fault that produced this outcome, if any — keeps
  /// fault-rate accounting separable from organic failures.
  FaultKind injectedFault = FaultKind::kNone;
  /// Client-visible failure shape (kNone on success).
  FailureSignature signature = FailureSignature::kNone;
  /// Simulator-side ground truth for the failure (kNone on success).
  FailureCause cause = FailureCause::kNone;
  /// Ground-truth interference that shaped this fetch (kNone when no
  /// InterferencePlan is armed). Measurement code must never branch on it.
  InterferenceEffect interference = InterferenceEffect::kNone;
  /// Attempts consumed, including the final one (1 = no retry happened).
  int attempts = 1;

  [[nodiscard]] bool ok() const {
    return outcome == FetchOutcome::kOk && response.has_value();
  }
};

/// When and how often a transient failure is re-fetched. Backoff runs on the
/// simulated clock: the world advances `backoffHours(attempt)` hours after
/// failed attempt `attempt` (0-based), doubling (by default) each time.
struct RetryPolicy {
  int maxAttempts = 1;  ///< total attempts; 1 disables retrying
  int initialBackoffHours = 1;
  int backoffMultiplier = 2;
  /// Which outcomes are considered transient. kOk (even a block page) and
  /// kBadUrl (a client-side parse error) are never retried.
  bool retryOnTimeout = true;
  bool retryOnReset = true;
  bool retryOnDns = true;
  bool retryOnConnectFailure = false;

  [[nodiscard]] bool shouldRetry(FetchOutcome outcome) const;
  /// Hours to wait after failed attempt `attempt` (0-based):
  /// initialBackoffHours * backoffMultiplier^attempt.
  [[nodiscard]] std::int64_t backoffHours(int attempt) const;

  /// Convenience: `attempts` tries with the default backoff schedule.
  static RetryPolicy attempts(int n) {
    RetryPolicy policy;
    policy.maxAttempts = n;
    return policy;
  }
};

struct FetchOptions {
  bool followRedirects = true;
  int maxRedirects = 5;
  RetryPolicy retry = {};
  /// ESNI/ECH-style SNI omission: TLS fetches send a ClientHello that names
  /// no server. An SNI filter fails open on such flows (Table 5 evasion).
  bool omitSni = false;
  /// Offset added to the attempt index the FaultPlan is rolled with. Fault
  /// draws are pure in (seed, vantage, url, attempt), so a caller re-trying
  /// the same URL across separate fetch() calls (the mechanism classifier's
  /// evidence budget) must advance this or every trial re-observes the
  /// first attempt's draw and a transient fault looks persistent.
  int attemptBase = 0;
  /// Per-attempt deadline on the simulated clock, in hours. 0 = wait
  /// forever (historical behaviour). With a deadline set, a tarpitted
  /// attempt is cancelled after `attemptDeadlineHours` and reports the
  /// distinct kSlowDrip signature instead of burning the full tarpit.
  std::int64_t attemptDeadlineHours = 0;
};

/// Client-side HTTP over the simulated Internet.
///
/// Every fetch runs one path of stages (simnet/path_stage.h), in order:
///  1. the world-wide plans — outage, fault, interference (window, lockout,
///     tarpit) — each only if installed;
///  2. the ISP's packet filters, then World::resolve;
///  3. flow tracking (only when the ISP has packet filters), the connect
///     hooks, then the request hooks — packet filters see cleartext flows
///     only, middleboxes that are stopped or unplugged sit out, and
///     interference may disguise a middlebox's answer;
///  4. the endpoint, then the middleboxes' response hooks, innermost first.
/// The first stage that preempts ends the attempt. The lab vantage has no
/// ISP, so only the world-wide plans stand between it and the origin. This
/// is the only I/O primitive the measurement methodology uses; the retry
/// policy governs re-fetching with simulated-clock backoff.
class Transport {
 public:
  explicit Transport(World& world) : world_(&world) {}

  [[nodiscard]] FetchResult fetch(const VantagePoint& vantage,
                                  const http::Request& request,
                                  const FetchOptions& options = {});

  /// Convenience: parse `urlText`, build its GET and fetch it. Malformed
  /// URLs yield badUrl(urlText) (no retry, no fault roll).
  [[nodiscard]] FetchResult fetchUrl(const VantagePoint& vantage,
                                     std::string_view urlText,
                                     const FetchOptions& options = {});

  /// What fetching a malformed `urlText` yields: kBadUrl with a descriptive
  /// error and no side effect on the world.
  [[nodiscard]] static FetchResult badUrl(std::string_view urlText);

  /// Resolve `hostname` exactly as a fetch from `vantage` would — the ISP's
  /// DNS hooks first, then the global registry. This is the mechanism
  /// classifier's resolver cross-check: the world-wide plans are not
  /// consulted, so it consumes no fault draw and advances nothing, like a
  /// client re-querying its resolver out of band.
  [[nodiscard]] std::optional<net::Ipv4Addr> resolveFrom(
      const VantagePoint& vantage, std::string_view hostname);

  /// How far a verdict observed from `vantage` may be reused: the least
  /// cacheable stage on its path decides.
  [[nodiscard]] Cacheability cacheability(const VantagePoint& vantage) const;

 private:
  [[nodiscard]] FetchResult fetchOnce(const VantagePoint& vantage,
                                      const http::Request& request,
                                      const FetchOptions& options,
                                      int attempt);
  /// One attempt: fetchOnce plus redirect following.
  [[nodiscard]] FetchResult fetchAttempt(const VantagePoint& vantage,
                                         const http::Request& request,
                                         const FetchOptions& options,
                                         int attempt);

  World* world_;
};

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_TRANSPORT_H
