#ifndef URLF_SIMNET_OUTAGE_H
#define URLF_SIMNET_OUTAGE_H

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "simnet/isp.h"
#include "simnet/middlebox.h"
#include "util/clock.h"

namespace urlf::simnet {

/// The persistent-failure sibling of FaultPlan. Where FaultPlan models
/// transient substrate noise (per-attempt Bernoulli flaps that a retry
/// budget rides out), OutagePlan models things that do NOT come back within
/// a campaign:
///
///  * permanent vantage death — an in-country tester drops off the network
///    for good (ICLab-style vantage churn); every later fetch from that
///    vantage times out,
///  * middlebox silent-stop — a filtering device ceases intercepting
///    mid-campaign (fails open): submitted sites stop being blocked even
///    though the vendor reviewed them,
///  * category-DB rollback windows — the deployment's policy view reverts
///    to an earlier feed date for a bounded window (a botched vendor-feed
///    update), then recovers.
///
/// Everything is a pure function of (plan state, simulated now), so installing
/// a plan keeps the world deterministic and thread-count independent, and
/// verdict memoization (keyed on the clock) stays valid.
///
/// As a path stage the plan is the first stage of every fetch: a dead
/// vantage has no network activity at all, only client-side timeouts. The
/// transport consults the other two models directly — stopped middleboxes
/// sit the path out, and the chain sees policyTime().
class OutagePlan : public PathStage {
 public:
  explicit OutagePlan(std::uint64_t seed = 0)
      : PathStage(PathLayer::kWorld), seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // --- permanent vantage death -------------------------------------------

  /// From `at` onward, every fetch from the named vantage times out.
  void killVantage(const std::string& vantageName, util::SimTime at) {
    vantageDeaths_[vantageName] = at;
  }

  [[nodiscard]] bool vantageDead(const VantagePoint& vantage,
                                 util::SimTime now) const;
  [[nodiscard]] std::optional<util::SimTime> deathTime(
      const std::string& vantageName) const;

  /// A dead vantage's fetch times out before anything else happens.
  std::optional<Preempt> onDns(PathContext& ctx) override;

  /// Seeded churn: pick `count` distinct candidates (keyed draws off the
  /// plan seed — stable for a given candidate list) and schedule each death
  /// at a uniformly drawn hour in [from, until).
  void scheduleSeededDeaths(std::span<const std::string> candidates,
                            std::size_t count, util::SimTime from,
                            util::SimTime until);

  // --- middlebox silent-stop ---------------------------------------------

  /// From `at` onward, middleboxes named `boxName` neither intercept nor
  /// post-process traffic (the filter fails open, silently).
  void stopMiddlebox(const std::string& boxName, util::SimTime at) {
    middleboxStops_[boxName] = at;
  }

  [[nodiscard]] bool middleboxStopped(const Middlebox& box,
                                      util::SimTime now) const;

  // --- category-DB rollback windows --------------------------------------

  /// During [from, until), every middlebox policy decision sees the world as
  /// of `rollbackTo` instead of `now` (categorizeAsOf and friends consult
  /// the intercept-context clock). Windows may not overlap; the earliest
  /// matching window wins if they do.
  void addDbRollback(util::SimTime from, util::SimTime until,
                     util::SimTime rollbackTo);

  /// The policy-effective time the middlebox chain should see at `now`.
  [[nodiscard]] util::SimTime policyTime(util::SimTime now) const;

  [[nodiscard]] bool empty() const {
    return vantageDeaths_.empty() && middleboxStops_.empty() &&
           rollbacks_.empty();
  }

 private:
  struct Rollback {
    util::SimTime from;
    util::SimTime until;
    util::SimTime rollbackTo;
  };

  std::uint64_t seed_;
  std::map<std::string, util::SimTime> vantageDeaths_;  ///< name -> death
  std::map<std::string, util::SimTime> middleboxStops_; ///< name -> stop
  std::vector<Rollback> rollbacks_;                     ///< sorted by from
};

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_OUTAGE_H
