#include "simnet/fault.h"

#include "util/hash.h"

namespace urlf::simnet {

using util::fnv1a64;
using util::keyedUniform01;
using util::splitmix64Next;

std::string_view toString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDnsFlap: return "dns-flap";
    case FaultKind::kConnectFail: return "connect-fail";
    case FaultKind::kLoss: return "loss";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kOutage: return "outage";
  }
  return "unknown";
}

const FaultRates& FaultPlan::ratesFor(const VantagePoint& vantage) const {
  if (vantage.isp != nullptr) {
    const auto it = ispRates_.find(vantage.isp->name());
    if (it != ispRates_.end()) return it->second;
  }
  const auto it = countryRates_.find(vantage.countryAlpha2);
  if (it != countryRates_.end()) return it->second;
  return defaults_;
}

FaultKind FaultPlan::roll(const VantagePoint& vantage, std::string_view url,
                          int attempt) const {
  const FaultRates& rates = ratesFor(vantage);
  if (rates.zero()) return FaultKind::kNone;

  // Mix (seed, vantage, url, attempt) through the splitmix64 schedule; each
  // component advances the key so e.g. ("a", 1) and ("a1",) differ.
  std::uint64_t key = seed_;
  splitmix64Next(key);
  key ^= fnv1a64(vantage.name);
  splitmix64Next(key);
  key ^= fnv1a64(url);
  splitmix64Next(key);
  key ^= static_cast<std::uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL;

  // One draw, cumulative thresholds: at most one process fires per attempt.
  const double u = keyedUniform01(key);
  double edge = rates.dnsFlap;
  if (u < edge) return FaultKind::kDnsFlap;
  edge += rates.connectFail;
  if (u < edge) return FaultKind::kConnectFail;
  edge += rates.loss;
  if (u < edge) return FaultKind::kLoss;
  edge += rates.timeout;
  if (u < edge) return FaultKind::kTimeout;
  return FaultKind::kNone;
}

std::optional<Preempt> FaultPlan::onDns(PathContext& ctx) {
  // The signatures deliberately overlap packet-level censorship's: on a
  // single trial the two are indistinguishable, which is what the mechanism
  // classifier's evidence budget exists to resolve.
  const FaultKind fault = roll(ctx.vantage, ctx.url(), ctx.attempt);
  const auto fail = [&](FetchOutcome outcome, FailureSignature signature,
                        std::string error) {
    ctx.injectedFault = fault;
    return Preempt{outcome, signature, FailureCause::kFault, std::move(error),
                   {}};
  };
  switch (fault) {
    case FaultKind::kDnsFlap:
      return fail(FetchOutcome::kDnsFailure, FailureSignature::kEmptyDns,
                  "injected transient DNS flap: " + ctx.request().url.host());
    case FaultKind::kConnectFail:
      return fail(FetchOutcome::kConnectFailure, FailureSignature::kRefused,
                  "injected transient connect failure");
    case FaultKind::kLoss:
      return fail(FetchOutcome::kTimeout, FailureSignature::kTimeout,
                  "injected transient loss (flow blackholed)");
    case FaultKind::kTimeout:
      return fail(FetchOutcome::kTimeout, FailureSignature::kTimeout,
                  "injected timeout (response past deadline)");
    case FaultKind::kNone:
    case FaultKind::kOutage:  // never rolled by a FaultPlan
      break;
  }
  return std::nullopt;
}

}  // namespace urlf::simnet
