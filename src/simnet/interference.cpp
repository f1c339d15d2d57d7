#include "simnet/interference.h"

#include "simnet/world.h"
#include "util/hash.h"

namespace urlf::simnet {

std::string_view toString(InterferenceEffect effect) {
  switch (effect) {
    case InterferenceEffect::kNone: return "none";
    case InterferenceEffect::kHidden: return "hidden";
    case InterferenceEffect::kLockout: return "lockout";
    case InterferenceEffect::kTarpit: return "tarpit";
    case InterferenceEffect::kFlakyOpen: return "flaky-open";
    case InterferenceEffect::kMimicry: return "mimicry";
  }
  return "unknown";
}

std::string_view toString(MimicTemplate t) {
  switch (t) {
    case MimicTemplate::kSmartFilter: return "smartfilter";
    case MimicTemplate::kBlueCoat: return "bluecoat";
    case MimicTemplate::kNetsweeper: return "netsweeper";
    case MimicTemplate::kWebsense: return "websense";
  }
  return "unknown";
}

http::Response mimicResponse(MimicTemplate t) {
  http::Response r;
  r.statusCode = 200;
  r.reason = "OK";
  r.headers.set("Content-Type", "text/html");
  switch (t) {
    case MimicTemplate::kSmartFilter:
      r.headers.set("Via", "1.1 filter (McAfee Web Gateway 7.3)");
      r.body =
          "<html><head><title>McAfee Web Gateway - Notification</title>"
          "</head><body><h1>Access Denied</h1></body></html>";
      break;
    case MimicTemplate::kBlueCoat:
      r.body =
          "<html><head><title>Blue Coat WebFilter</title></head>"
          "<body><h1>Your request was denied</h1></body></html>";
      break;
    case MimicTemplate::kNetsweeper:
      r.headers.set("X-Filter", "Netsweeper");
      r.body =
          "<html><head><title>Web page blocked</title></head>"
          "<body>Netsweeper WebAdmin denied this request.</body></html>";
      break;
    case MimicTemplate::kWebsense:
      r.body =
          "<html><head><title>Websense - Access denied</title></head>"
          "<body><h1>Content blocked by your organization</h1></body></html>";
      break;
  }
  return r;
}

const InterferenceProfile& InterferencePlan::profileFor(
    const VantagePoint& vantage) const {
  static const InterferenceProfile kInert;
  if (vantage.isp == nullptr) return kInert;
  const auto it = ispProfiles_.find(vantage.isp->name());
  return it != ispProfiles_.end() ? it->second : defaultProfile_;
}

bool InterferencePlan::activeFor(const VantagePoint& vantage) const {
  return profileFor(vantage).any();
}

double InterferencePlan::draw(std::string_view purpose,
                              const VantagePoint& vantage,
                              std::string_view url, int attempt) const {
  // Same key schedule as FaultPlan::roll, extended with a purpose tag so
  // independent decisions about the same (vantage, url, attempt) fetch do
  // not reuse one draw.
  std::uint64_t key = seed_;
  util::splitmix64Next(key);
  key ^= util::fnv1a64(purpose);
  util::splitmix64Next(key);
  key ^= util::fnv1a64(vantage.name);
  util::splitmix64Next(key);
  key ^= util::fnv1a64(url);
  util::splitmix64Next(key);
  key ^= static_cast<std::uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL;
  return util::keyedUniform01(key);
}

MimicTemplate InterferencePlan::drawTemplate(const InterferenceProfile& profile,
                                             const VantagePoint& vantage,
                                             std::string_view url,
                                             int attempt) const {
  const double u = draw("mimic-template", vantage, url, attempt);
  const auto index = static_cast<std::size_t>(
      u * static_cast<double>(profile.mimicPool.size()));
  return profile.mimicPool[index < profile.mimicPool.size()
                               ? index
                               : profile.mimicPool.size() - 1];
}

std::optional<Preempt> InterferencePlan::onDns(PathContext& ctx) {
  const InterferenceProfile& profile = profileFor(ctx.vantage);
  if (!profile.any()) return std::nullopt;
  ctx.interference = &profile;
  World& world = ctx.world;
  const InterferenceEffect window = world.interferenceState().recordFetch(
      ctx.vantage.name, world.now(), profile);
  if (window == InterferenceEffect::kLockout) {
    ctx.effect = InterferenceEffect::kLockout;
    const bool refused =
        draw("lockout-sig", ctx.vantage, ctx.url(), ctx.attempt) < 0.5;
    return refused ? Preempt{FetchOutcome::kConnectFailure,
                             FailureSignature::kRefused,
                             FailureCause::kInterference,
                             "connection refused (rate-limit lockout)", {}}
                   : Preempt{FetchOutcome::kTimeout, FailureSignature::kTimeout,
                             FailureCause::kInterference,
                             "connection timed out (rate-limit lockout)", {}};
  }
  if (profile.tarpitRate > 0.0 &&
      draw("tarpit", ctx.vantage, ctx.url(), ctx.attempt) <
          profile.tarpitRate) {
    ctx.effect = InterferenceEffect::kTarpit;
    if (ctx.deadlineHours > 0 && ctx.deadlineHours < profile.tarpitHours) {
      // Deadline cancellation: the client hangs up after its per-attempt
      // budget and sees the distinct slow-drip signature.
      world.clock().advanceHours(ctx.deadlineHours);
      return Preempt{FetchOutcome::kTimeout, FailureSignature::kSlowDrip,
                     FailureCause::kInterference,
                     "slow-drip response cancelled at deadline", {}};
    }
    // No (effective) deadline: the drip eventually completes, at full
    // simulated-clock cost. The exchange then proceeds normally.
    world.clock().advanceHours(profile.tarpitHours);
  }
  const auto unplug = [&ctx](InterferenceEffect effect) {
    ctx.censorUnplugged = true;
    if (ctx.effect == InterferenceEffect::kNone) ctx.effect = effect;
  };
  if (window == InterferenceEffect::kHidden) {
    unplug(InterferenceEffect::kHidden);
  } else if (profile.flakyRate > 0.0 &&
             draw("flaky", ctx.vantage, ctx.url(), ctx.attempt) <
                 profile.flakyRate) {
    unplug(InterferenceEffect::kFlakyOpen);
  }
  return std::nullopt;
}

void InterferencePlan::disguise(PathContext& ctx, Preempt& answer) const {
  const InterferenceProfile* profile = ctx.interference;
  if (profile == nullptr || profile->mimicryRate <= 0.0 ||
      profile->mimicPool.empty() ||
      draw("mimic", ctx.vantage, ctx.url(), ctx.attempt) >=
          profile->mimicryRate)
    return;
  answer.response = mimicResponse(
      drawTemplate(*profile, ctx.vantage, ctx.url(), ctx.attempt));
  ctx.effect = InterferenceEffect::kMimicry;
}

InterferenceEffect InterferenceState::recordFetch(
    const std::string& vantageName, util::SimTime now,
    const InterferenceProfile& profile) {
  if (!profile.stateful()) return InterferenceEffect::kNone;
  auto& w = windows_[vantageName];

  if (profile.probeThreshold > 0) {
    if (w.probeWindowStart < 0 ||
        now.hours() - w.probeWindowStart >= profile.probeWindowHours) {
      w.probeWindowStart = now.hours();
      w.probeCount = 0;
    }
    ++w.probeCount;
    if (w.probeCount > profile.probeThreshold && now >= w.hiddenUntil) {
      // Arming (or re-arming) a hide window changes later intercept
      // decisions — bump the epoch. Counting inside the window does not.
      w.hiddenUntil = now + profile.hideHours;
      ++epoch_;
    }
  }

  if (profile.lockoutThreshold > 0) {
    if (w.lockoutWindowStart < 0 ||
        now.hours() - w.lockoutWindowStart >= profile.lockoutWindowHours) {
      w.lockoutWindowStart = now.hours();
      w.lockoutCount = 0;
    }
    ++w.lockoutCount;
    if (w.lockoutCount > profile.lockoutThreshold && now >= w.bannedUntil) {
      w.bannedUntil = now + profile.banHours;
      ++epoch_;
    }
  }

  // A ban dominates a hide: a locked-out client gets wire failures, not
  // clean pages.
  if (now < w.bannedUntil) return InterferenceEffect::kLockout;
  if (now < w.hiddenUntil) return InterferenceEffect::kHidden;
  return InterferenceEffect::kNone;
}

}  // namespace urlf::simnet
