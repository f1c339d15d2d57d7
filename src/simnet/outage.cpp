#include "simnet/outage.h"

#include <algorithm>

#include "simnet/world.h"
#include "util/hash.h"

namespace urlf::simnet {

bool OutagePlan::vantageDead(const VantagePoint& vantage,
                             util::SimTime now) const {
  const auto it = vantageDeaths_.find(vantage.name);
  return it != vantageDeaths_.end() && now >= it->second;
}

std::optional<util::SimTime> OutagePlan::deathTime(
    const std::string& vantageName) const {
  const auto it = vantageDeaths_.find(vantageName);
  if (it == vantageDeaths_.end()) return std::nullopt;
  return it->second;
}

std::optional<Preempt> OutagePlan::onDns(PathContext& ctx) {
  if (!vantageDead(ctx.vantage, ctx.world.now())) return std::nullopt;
  ctx.injectedFault = FaultKind::kOutage;
  return Preempt{FetchOutcome::kTimeout, FailureSignature::kTimeout,
                 FailureCause::kOutage,
                 "vantage offline: " + ctx.vantage.name +
                     " permanently dead since hour " +
                     std::to_string(deathTime(ctx.vantage.name)->hours()),
                 {}};
}

void OutagePlan::scheduleSeededDeaths(std::span<const std::string> candidates,
                                      std::size_t count, util::SimTime from,
                                      util::SimTime until) {
  if (candidates.empty() || until <= from) return;
  count = std::min(count, candidates.size());

  // Keyed draws, one per candidate: rank candidates by their draw and kill
  // the `count` lowest. Stable for a given (seed, candidate set) regardless
  // of call order elsewhere — the same discipline FaultPlan uses.
  std::vector<std::pair<std::uint64_t, std::size_t>> ranked;
  ranked.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    std::uint64_t key = seed_;
    util::splitmix64Next(key);
    key ^= util::fnv1a64(candidates[i]);
    std::uint64_t cursor = key;
    ranked.emplace_back(util::splitmix64Next(cursor), i);
  }
  std::sort(ranked.begin(), ranked.end());

  const auto window = static_cast<std::uint64_t>(until - from);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = ranked[k].second;
    std::uint64_t key = ranked[k].first;
    const std::int64_t offset =
        static_cast<std::int64_t>(util::splitmix64Next(key) % window);
    killVantage(candidates[i], from + offset);
  }
}

bool OutagePlan::middleboxStopped(const Middlebox& box,
                                  util::SimTime now) const {
  const auto it = middleboxStops_.find(box.name());
  return it != middleboxStops_.end() && now >= it->second;
}

void OutagePlan::addDbRollback(util::SimTime from, util::SimTime until,
                               util::SimTime rollbackTo) {
  rollbacks_.push_back({from, until, rollbackTo});
  std::sort(rollbacks_.begin(), rollbacks_.end(),
            [](const Rollback& a, const Rollback& b) { return a.from < b.from; });
}

util::SimTime OutagePlan::policyTime(util::SimTime now) const {
  for (const Rollback& window : rollbacks_)
    if (now >= window.from && now < window.until) return window.rollbackTo;
  return now;
}

}  // namespace urlf::simnet
