#ifndef URLF_SIMNET_INTERFERENCE_H
#define URLF_SIMNET_INTERFERENCE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "simnet/isp.h"
#include "simnet/path_stage.h"
#include "util/clock.h"

namespace urlf::simnet {

/// Which vendor's blockpage template a mimicking censor serves. simnet
/// cannot depend on filters/, so the template set is named locally; the
/// synthesized responses match the builtin blockpage fingerprints.
enum class MimicTemplate {
  kSmartFilter,
  kBlueCoat,
  kNetsweeper,
  kWebsense,
};

[[nodiscard]] std::string_view toString(MimicTemplate t);

/// Synthesize a response that matches the named vendor's builtin blockpage
/// fingerprint (filters::builtinBlockPagePatterns). A mimicking censor
/// serves this instead of its own template to cause misattribution.
[[nodiscard]] http::Response mimicResponse(MimicTemplate t);

/// Per-ISP knobs for adversarial measurement interference. All thresholds
/// default to off; a default-constructed profile is a no-op.
struct InterferenceProfile {
  // Probe detection: more than `probeThreshold` fetches from one vantage
  // within `probeWindowHours` of simulated clock → the censor "hides" from
  // that vantage (serves clean pages) for `hideHours`. 0 = off.
  int probeThreshold = 0;
  std::int64_t probeWindowHours = 1;
  std::int64_t hideHours = 24;

  // Rate-limit lockout: more than `lockoutThreshold` fetches within
  // `lockoutWindowHours` → temp-ban for `banHours` with refused/timeout
  // signatures. 0 = off.
  int lockoutThreshold = 0;
  std::int64_t lockoutWindowHours = 1;
  std::int64_t banHours = 12;

  // Tarpitting: with probability `tarpitRate` per fetch, the response is a
  // slow drip that consumes `tarpitHours` of simulated clock unless the
  // client enforces a per-attempt deadline (FetchOptions).
  double tarpitRate = 0.0;
  std::int64_t tarpitHours = 48;

  // Flaky enforcement: with probability `flakyRate` per flow, the censor
  // simply does not enforce — the fetch sails through clean.
  double flakyRate = 0.0;

  // Blockpage mimicry: with probability `mimicryRate` per intercepted
  // fetch, the censor serves a template drawn from `mimicPool` instead of
  // its own blockpage.
  double mimicryRate = 0.0;
  std::vector<MimicTemplate> mimicPool;

  bool operator==(const InterferenceProfile&) const = default;

  /// True if any feature is armed.
  [[nodiscard]] bool any() const {
    return probeThreshold > 0 || lockoutThreshold > 0 || tarpitRate > 0.0 ||
           flakyRate > 0.0 || (mimicryRate > 0.0 && !mimicPool.empty());
  }

  /// True if any history-dependent feature is armed (probe detection or
  /// lockout windows). Stateful features make verdicts cadence-dependent,
  /// so verdict memos must stay off for affected vantages.
  [[nodiscard]] bool stateful() const {
    return probeThreshold > 0 || lockoutThreshold > 0;
  }
};

/// Deterministic per-ISP interference configuration — the adversarial twin
/// of FaultPlan. Every probabilistic decision is a pure hash draw keyed by
/// (seed, purpose, vantage, url, attempt): no shared RNG is consumed, so
/// fetch order and thread count cannot change any outcome.
///
/// As a path stage the plan sits at the head of every fetch path, after the
/// outage and fault plans. It feeds the probe/lockout windows first — the
/// fetch that trips a threshold is itself affected — then a lockout
/// preempts the exchange, a tarpit consumes simulated clock, and a hide or
/// flaky window unplugs the HTTP censor for this flow. Mimicry acts later,
/// on a middlebox's answer (disguise()).
class InterferencePlan : public PathStage {
 public:
  explicit InterferencePlan(std::uint64_t seed)
      : PathStage(PathLayer::kWorld), seed_(seed) {}

  void setDefaultProfile(InterferenceProfile profile) {
    defaultProfile_ = profile;
  }
  void setIspProfile(const std::string& ispName, InterferenceProfile profile) {
    ispProfiles_[ispName] = profile;
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// ISP override if present, else the default profile. Lab vantages
  /// (no ISP) are never interfered with.
  [[nodiscard]] const InterferenceProfile& profileFor(
      const VantagePoint& vantage) const;

  /// True if any interference feature is armed for this vantage.
  [[nodiscard]] bool activeFor(const VantagePoint& vantage) const;

  /// Pure uniform [0,1) draw for one decision. `purpose` namespaces the
  /// draw ("tarpit", "flaky", "mimic", "lockout-sig") so decisions on the
  /// same fetch are independent.
  [[nodiscard]] double draw(std::string_view purpose,
                            const VantagePoint& vantage, std::string_view url,
                            int attempt) const;

  /// Pure template pick from the profile's mimic pool (must be non-empty).
  [[nodiscard]] MimicTemplate drawTemplate(const InterferenceProfile& profile,
                                           const VantagePoint& vantage,
                                           std::string_view url,
                                           int attempt) const;

  std::optional<Preempt> onDns(PathContext& ctx) override;

  /// Blockpage mimicry: with the profile's rate, swap a censor's own answer
  /// for another vendor's template to bait misattribution. Pure per-fetch
  /// draw; a no-op unless onDns armed `ctx.interference`.
  void disguise(PathContext& ctx, Preempt& answer) const;

  /// Armed interference draws are attempt-keyed and its windows are
  /// cadence-dependent, so no verdict observed under it may be memoized or
  /// shared — a deceived observation served again would launder the
  /// deception.
  [[nodiscard]] Cacheability cacheability(
      const VantagePoint& vantage) const override {
    return activeFor(vantage) ? Cacheability::kNone : Cacheability::kShared;
  }

 private:
  std::uint64_t seed_;
  InterferenceProfile defaultProfile_;
  std::map<std::string, InterferenceProfile> ispProfiles_;
};

/// Per-vantage sliding-window counters for the stateful interference
/// features, owned by the World beside the FlowTable and following the same
/// epoch contract: arming (or extending) a hide/ban window bumps
/// stateEpoch() because it changes later filtering decisions; pure request
/// counting inside an open window deliberately does not.
class InterferenceState {
 public:
  /// Record one fetch attempt from `vantageName` at `now` and update the
  /// probe/lockout windows per `profile`. Returns the effect that should
  /// apply to *this* fetch: kHidden while a hide window is open, kLockout
  /// while a ban is active, else kNone. The fetch that trips a threshold is
  /// itself affected.
  InterferenceEffect recordFetch(const std::string& vantageName,
                                 util::SimTime now,
                                 const InterferenceProfile& profile);

  /// Bumped whenever a hide or ban window is armed or extended.
  [[nodiscard]] std::uint64_t stateEpoch() const { return epoch_; }

  void clear() {
    windows_.clear();
    ++epoch_;
  }

 private:
  struct Window {
    std::int64_t probeWindowStart = -1;
    int probeCount = 0;
    std::int64_t lockoutWindowStart = -1;
    int lockoutCount = 0;
    util::SimTime hiddenUntil{-1};
    util::SimTime bannedUntil{-1};
  };

  std::map<std::string, Window> windows_;
  std::uint64_t epoch_ = 0;
};

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_INTERFERENCE_H
