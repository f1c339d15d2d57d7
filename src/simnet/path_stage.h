#ifndef URLF_SIMNET_PATH_STAGE_H
#define URLF_SIMNET_PATH_STAGE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "http/message.h"
#include "net/ipv4.h"
#include "util/clock.h"
#include "util/rng.h"

namespace urlf::simnet {

class World;
struct InterferenceProfile;
struct VantagePoint;

/// How a single fetch ended at the transport level.
enum class FetchOutcome {
  kOk,              ///< got an HTTP response (possibly a block page)
  kDnsFailure,      ///< hostname did not resolve
  kConnectFailure,  ///< nothing listening at (ip, port)
  kTimeout,         ///< flow blackholed in transit
  kReset,           ///< TCP RST injected in transit
  kBadUrl,          ///< the URL never parsed — no network activity happened
};

[[nodiscard]] std::string_view toString(FetchOutcome outcome);

/// The fine-grained, client-visible shape of a failed fetch — *what the
/// wire showed*, not why. Packet-level censorship and ordinary substrate
/// faults produce overlapping signatures (that ambiguity is the point:
/// a single trial cannot tell them apart), so the mechanism classifier
/// works from repeated signatures plus cross-checks, never one draw.
enum class FailureSignature {
  kNone,             ///< the fetch did not fail
  kEmptyDns,         ///< resolution came back empty (NXDOMAIN)
  kRefused,          ///< connection refused — RST on the SYN
  kRstBeforeBanner,  ///< reset after connect, before any application byte
  kRstAfterRequest,  ///< reset after the request bytes went out
  kTimeout,          ///< nothing came back before the deadline
  kSlowDrip,         ///< bytes trickled but the per-attempt deadline fired
};

[[nodiscard]] std::string_view toString(FailureSignature signature);

/// Why the fetch failed — *ground truth the simulator knows*, recorded so
/// journals and resumed campaigns never conflate an injected transient
/// fault with a middlebox- or packet-filter-caused failure that has the
/// same outcome. (Real measurement clients cannot observe this directly;
/// the mechanism classifier must recover it from signatures alone.)
enum class FailureCause {
  kNone,          ///< no failure
  kOrganic,       ///< condition of the world itself (no DNS record, no
                  ///< listener at the address)
  kFault,         ///< injected transient fault (FaultPlan)
  kOutage,        ///< permanent vantage death (OutagePlan)
  kMiddlebox,     ///< HTTP-layer middlebox killed the exchange
  kPacketFilter,  ///< packet-level filter tampered with or killed the flow
  kInterference,  ///< adversarial interference (InterferencePlan)
};

[[nodiscard]] std::string_view toString(FailureCause cause);

/// Which transient fault process fired for one fetch attempt (kNone = the
/// attempt ran cleanly through the real transport path).
enum class FaultKind {
  kNone,
  kDnsFlap,      ///< resolver transiently returned NXDOMAIN
  kConnectFail,  ///< SYN lost or refused under load
  kLoss,         ///< flow blackholed mid-transfer — client sees a timeout
  kTimeout,      ///< response delayed past the client deadline
  kOutage,       ///< permanent vantage death (OutagePlan) — never transient
};

[[nodiscard]] std::string_view toString(FaultKind kind);

/// Ground-truth record of which adversarial behaviour (if any) shaped a
/// fetch. Like FailureCause, this is simulation-side truth: measurement
/// clients must never branch on it — it exists so benches and journals can
/// score how often a robustness layer was deceived.
enum class InterferenceEffect {
  kNone,       ///< no interference touched this fetch
  kHidden,     ///< probe detected — censor served the clean page
  kLockout,    ///< rate-limit temp-ban — fetch refused or black-holed
  kTarpit,     ///< slow-drip response consumed simulated clock
  kFlakyOpen,  ///< per-flow flaky enforcement let this flow through
  kMimicry,    ///< blockpage swapped for another vendor's template
};

[[nodiscard]] std::string_view toString(InterferenceEffect effect);

/// How far a verdict observed through a stage may be reused without
/// fetching again. Levels are ordered; a path is as cacheable as its least
/// cacheable stage.
enum class Cacheability {
  kNone,    ///< never memoized: the stage rolls dice per exchange, or an
            ///< adversary may be deceiving this vantage
  kLocal,   ///< deterministic, but a fetch mutates state (a vendor crawl
            ///< queue, a residual hold-down): a client may replay its own
            ///< verdicts, but no other world may skip the fetch
  kShared,  ///< deterministic and side-effect free: any world may replay it
};

/// How a stage ended a fetch attempt: everything the client observes of it,
/// as one value. Failures carry an outcome, signature, cause and error; a
/// middlebox that answers in place of the origin carries its response.
struct Preempt {
  FetchOutcome outcome = FetchOutcome::kOk;
  FailureSignature signature = FailureSignature::kNone;
  FailureCause cause = FailureCause::kNone;
  std::string error;
  std::optional<http::Response> response;  ///< set for kOk only

  /// Short-circuit with `response` (block page, redirect, ...).
  static Preempt respond(http::Response response) {
    return {FetchOutcome::kOk, FailureSignature::kNone, FailureCause::kNone,
            {}, std::move(response)};
  }
  /// An injected TCP RST. An HTTP-layer box only acts once it holds the
  /// request, so its reset lands after the request bytes.
  static Preempt reset(
      FailureCause cause,
      FailureSignature signature = FailureSignature::kRstAfterRequest) {
    return {FetchOutcome::kReset, signature, cause, "connection reset by peer",
            {}};
  }
  /// A blackholed flow: the client sees a timeout.
  static Preempt drop(FailureCause cause) {
    return {FetchOutcome::kTimeout, FailureSignature::kTimeout, cause,
            "connection timed out", {}};
  }
};

/// What the wire shows about a new client flow at connect time: the SYN plus
/// (for TLS) the ClientHello. `sniPresent` models ESNI/ECH-style omission —
/// an SNI filter that "fails open" passes TLS flows whose hello names no
/// server.
struct FlowSyn {
  std::string_view host;   ///< lowercased destination hostname (the URL's)
  net::Ipv4Addr dstIp;
  std::uint16_t port = 80;
  bool tls = false;        ///< the flow is a TLS session (https URL)
  bool sniPresent = true;  ///< ClientHello carries the server name
};

/// The policy view an HTTP middlebox gets of an exchange. `now` is the
/// policy-effective time: normally the clock, but during an OutagePlan
/// DB-rollback window the chain's view of mutable policy state reverts to an
/// earlier date.
struct InterceptContext {
  util::SimTime now;
  util::Rng* rng = nullptr;  ///< simulation randomness (never null in use)
};

/// Per-fetch state the stages of one attempt share. Built once by the
/// transport; stages read it and record cross-stage effects in it.
struct PathContext {
  PathContext(World& world, const VantagePoint& vantage,
              const http::Request& request, int attempt,
              std::int64_t deadlineHours)
      : world(world),
        vantage(vantage),
        attempt(attempt),
        deadlineHours(deadlineHours),
        request_(&request) {}

  World& world;
  const VantagePoint& vantage;
  int attempt;             ///< attempt index the keyed draws use
  std::int64_t deadlineHours;  ///< per-attempt deadline (0 = none)

  /// The DNS answer: forged by an on-path stage or resolved by the registry.
  std::optional<net::Ipv4Addr> ip;
  FlowSyn syn;               ///< set once the name resolved
  InterceptContext policy;   ///< set once the name resolved

  /// Interference armed for this vantage (null when none), whether it has
  /// unplugged the HTTP censor for this flow, and what it did.
  const InterferenceProfile* interference = nullptr;
  bool censorUnplugged = false;
  InterferenceEffect effect = InterferenceEffect::kNone;
  /// The injected fault or outage that preempted the attempt, if any.
  FaultKind injectedFault = FaultKind::kNone;

  /// The request as it travels the path: the caller's own, until a stage
  /// annotates it.
  [[nodiscard]] const http::Request& request() const {
    return annotated_ ? *annotated_ : *request_;
  }
  /// For a stage that annotates the request (a proxy header): this
  /// attempt's own copy, made on first use. The caller's request, which
  /// serves every vantage, attempt and hop of a fetch, stays as built.
  [[nodiscard]] http::Request& annotate() {
    if (!annotated_) annotated_.emplace(*request_);
    return *annotated_;
  }

  /// The request URL's canonical text, computed on first use only.
  [[nodiscard]] const std::string& url() {
    if (!url_) url_ = request().url.toString();
    return *url_;
  }

 private:
  const http::Request* request_;
  std::optional<http::Request> annotated_;
  std::optional<std::string> url_;
};

/// Which part of the path a stage belongs to. The transport runs stages in
/// path order — world-wide plans, then the ISP's packet filters, then its
/// middleboxes — and applies each layer's skip rules.
enum class PathLayer {
  kWorld,   ///< world-wide plans (outage, fault, interference)
  kPacket,  ///< on-path packet filters: see DNS, SYNs and cleartext bytes
  kHttp,    ///< HTTP middleboxes: may answer, annotate and post-process
};

/// One stage on a fetch's path. Every hook a stage does not override passes;
/// a hook that returns a Preempt ends the attempt there.
///
///  - onDns: the name is about to be resolved. A stage may preempt (fault,
///    lockout, NXDOMAIN) or forge `ctx.ip`.
///  - onConnect: the SYN (and, for TLS, the ClientHello) crosses the wire.
///  - onRequest: the request is on its way. Packet filters only see
///    cleartext requests; a middlebox may answer in place of the origin.
///  - onResponse: the origin's response on the way back, innermost stage
///    first.
class PathStage {
 public:
  explicit PathStage(PathLayer layer) : layer_(layer) {}
  virtual ~PathStage() = default;
  PathStage(const PathStage&) = default;
  PathStage& operator=(const PathStage&) = default;
  PathStage(PathStage&&) = default;
  PathStage& operator=(PathStage&&) = default;

  [[nodiscard]] PathLayer layer() const { return layer_; }

  virtual std::optional<Preempt> onDns(PathContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }
  virtual std::optional<Preempt> onConnect(PathContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }
  virtual std::optional<Preempt> onRequest(PathContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }
  virtual void onResponse(PathContext& ctx, http::Response& response) {
    (void)ctx;
    (void)response;
  }

  /// How far a verdict observed through this stage from `vantage` may be
  /// reused. kShared unless the stage rolls dice or mutates state per
  /// exchange.
  [[nodiscard]] virtual Cacheability cacheability(
      const VantagePoint& vantage) const {
    (void)vantage;
    return Cacheability::kShared;
  }

 private:
  PathLayer layer_;
};

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_PATH_STAGE_H
