#include "simnet/packet_filter.h"

#include <algorithm>

#include "simnet/isp.h"
#include "simnet/world.h"
#include "util/strings.h"

namespace urlf::simnet {

bool hostInZone(std::string_view hostname, std::string_view zone) {
  if (zone.empty()) return false;
  if (hostname == zone) return true;
  return hostname.size() > zone.size() + 1 &&
         hostname[hostname.size() - zone.size() - 1] == '.' &&
         util::endsWith(hostname, zone);
}

namespace {

FlowKey keyFor(const PathContext& ctx) {
  return FlowKey{ctx.vantage.name, std::string(ctx.syn.host), ctx.syn.port};
}

bool anyZoneMatches(const std::vector<std::string>& zones,
                    std::string_view hostname) {
  return std::any_of(zones.begin(), zones.end(), [&](const std::string& z) {
    return hostInZone(hostname, z);
  });
}

}  // namespace

// --- DnsPoisoner -----------------------------------------------------------

void DnsPoisoner::poisonZone(std::string zone) {
  zones_.push_back(util::toLower(zone));
  ++epoch_;
}

bool DnsPoisoner::matches(std::string_view hostname) const {
  return zones_.empty() || anyZoneMatches(zones_, hostname);
}

std::optional<Preempt> DnsPoisoner::onDns(PathContext& ctx) {
  const std::string& host = ctx.request().url.host();
  if (!matches(host)) return std::nullopt;
  ++queriesPoisoned_;
  if (mode_ == DnsTamper::Kind::kForged) {
    ctx.ip = sinkhole_;
    return std::nullopt;
  }
  return Preempt{FetchOutcome::kDnsFailure, FailureSignature::kEmptyDns,
                 FailureCause::kPacketFilter,
                 "NXDOMAIN: " + host + " (forged empty answer)", {}};
}

// --- RstInjector -----------------------------------------------------------

RstInjector::RstInjector(std::string name, std::vector<std::string> keywords,
                         std::int64_t holdDownHours)
    : name_(std::move(name)), holdDownHours_(holdDownHours) {
  keywords_.reserve(keywords.size());
  for (auto& keyword : keywords) keywords_.push_back(util::toLower(keyword));
}

std::optional<Preempt> RstInjector::onConnect(PathContext& ctx) {
  if (holdDownHours_ <= 0) return std::nullopt;
  FlowTable& flows = ctx.world.flows();
  const util::SimTime now = ctx.world.now();
  const FlowKey key = keyFor(ctx);
  if (!flows.residualActive(key, now)) return std::nullopt;
  // Residual blocking: the destination is still in hold-down from an
  // earlier kill, so the SYN dies before any application byte.
  ++residualKills_;
  flows.recordKill(key, now);
  flows.armResidual(key, now, now + holdDownHours_);
  return Preempt::reset(FailureCause::kPacketFilter,
                        FailureSignature::kRstBeforeBanner);
}

std::optional<Preempt> RstInjector::onRequest(PathContext& ctx) {
  std::string wire(ctx.syn.host);
  wire += ' ';
  wire += ctx.url();
  const std::string lowered = util::toLower(wire);
  const bool hit =
      std::any_of(keywords_.begin(), keywords_.end(),
                  [&](const std::string& keyword) {
                    return lowered.find(keyword) != std::string::npos;
                  });
  if (!hit) return std::nullopt;
  ++resetsInjected_;
  FlowTable& flows = ctx.world.flows();
  const util::SimTime now = ctx.world.now();
  const FlowKey key = keyFor(ctx);
  flows.recordKill(key, now);
  if (holdDownHours_ > 0) flows.armResidual(key, now, now + holdDownHours_);
  return Preempt::reset(FailureCause::kPacketFilter);
}

// --- SniFilter -------------------------------------------------------------

SniFilter::SniFilter(std::string name, std::vector<std::string> hostnames)
    : name_(std::move(name)) {
  hostnames_.reserve(hostnames.size());
  for (auto& host : hostnames) hostnames_.push_back(util::toLower(host));
}

std::optional<Preempt> SniFilter::onConnect(PathContext& ctx) {
  const FlowSyn& syn = ctx.syn;
  if (!syn.tls) return std::nullopt;
  if (!syn.sniPresent) {
    // ESNI-style omission: nothing to match on, so the filter fails open.
    if (anyZoneMatches(hostnames_, syn.host)) ++esniPassed_;
    return std::nullopt;
  }
  if (!anyZoneMatches(hostnames_, syn.host)) return std::nullopt;
  ++handshakesKilled_;
  ctx.world.flows().recordKill(keyFor(ctx), ctx.world.now());
  return Preempt::reset(FailureCause::kPacketFilter,
                        FailureSignature::kRstBeforeBanner);
}

// --- NullRouteFilter -------------------------------------------------------

NullRouteFilter::NullRouteFilter(std::string name,
                                 std::vector<std::string> hostnames)
    : name_(std::move(name)) {
  hostnames_.reserve(hostnames.size());
  for (auto& host : hostnames) hostnames_.push_back(util::toLower(host));
}

std::optional<Preempt> NullRouteFilter::onConnect(PathContext& ctx) {
  if (!anyZoneMatches(hostnames_, ctx.syn.host)) return std::nullopt;
  ++flowsBlackholed_;
  ctx.world.flows().recordKill(keyFor(ctx), ctx.world.now());
  return Preempt::drop(FailureCause::kPacketFilter);
}

}  // namespace urlf::simnet
