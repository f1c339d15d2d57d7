#ifndef URLF_SIMNET_FAULT_H
#define URLF_SIMNET_FAULT_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "simnet/isp.h"
#include "simnet/path_stage.h"

namespace urlf::simnet {

/// Per-process transient fault probabilities for one scope (a country, an
/// ISP, or the plan default). Each process is an independent Bernoulli per
/// fetch attempt; at most one fires (first match on a single uniform draw).
struct FaultRates {
  double dnsFlap = 0.0;
  double connectFail = 0.0;
  double loss = 0.0;
  double timeout = 0.0;

  /// Probability that *some* fault fires on one attempt.
  [[nodiscard]] double total() const {
    return dnsFlap + connectFail + loss + timeout;
  }
  [[nodiscard]] bool zero() const { return total() <= 0.0; }

  /// All four processes at the same rate — the shape the CLI `--faults R`
  /// flag and the scenario presets use.
  static FaultRates uniform(double perProcessRate) {
    return {perProcessRate, perProcessRate, perProcessRate, perProcessRate};
  }

  bool operator==(const FaultRates&) const = default;
};

/// A deterministic, seeded model of substrate unreliability (the paper's
/// Challenge 2, §4.4: "inconsistent blocking" seen by in-country testers).
///
/// The plan holds default rates plus per-country and per-ISP overrides
/// (ISP > country > default). Whether a fault fires for a given attempt is a
/// pure function of (plan seed, vantage name, url, attempt): the draw comes
/// from a private splitmix64 stream keyed on those values, never from the
/// world's shared RNG, so outcomes are reproducible, independent of fetch
/// order, and independent of the worker-pool width (DESIGN.md §4.2).
///
/// As a path stage the plan sits at the head of every fetch path, after the
/// outage plan: a fault it rolls preempts the whole exchange.
class FaultPlan : public PathStage {
 public:
  explicit FaultPlan(std::uint64_t seed, FaultRates defaults = {})
      : PathStage(PathLayer::kWorld), seed_(seed), defaults_(defaults) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  void setDefaultRates(FaultRates rates) { defaults_ = rates; }
  void setCountryRates(const std::string& alpha2, FaultRates rates) {
    countryRates_[alpha2] = rates;
  }
  void setIspRates(const std::string& ispName, FaultRates rates) {
    ispRates_[ispName] = rates;
  }

  /// Effective rates for a vantage point: its ISP's override if any, else
  /// its country's, else the plan default.
  [[nodiscard]] const FaultRates& ratesFor(const VantagePoint& vantage) const;

  /// Decide the fault (if any) for one fetch attempt. Pure and const —
  /// consumes no stream state.
  [[nodiscard]] FaultKind roll(const VantagePoint& vantage,
                               std::string_view url, int attempt) const;

  /// Roll this attempt's fault; one that fires ends the attempt with the
  /// signature it shows the client.
  std::optional<Preempt> onDns(PathContext& ctx) override;

 private:
  std::uint64_t seed_;
  FaultRates defaults_;
  std::map<std::string, FaultRates> countryRates_;  ///< alpha2 -> rates
  std::map<std::string, FaultRates> ispRates_;      ///< ISP name -> rates
};

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_FAULT_H
