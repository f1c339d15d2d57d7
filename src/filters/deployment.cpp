#include "filters/deployment.h"

#include <algorithm>

#include "util/strings.h"

namespace urlf::filters {

namespace {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace

Deployment::Deployment(std::string deploymentName, Vendor& vendor,
                       FilterPolicy policy)
    : deploymentName_(std::move(deploymentName)),
      vendor_(&vendor),
      policy_(std::move(policy)) {}

void Deployment::installExternalSurfaces(simnet::World& world,
                                         std::uint32_t asn) {
  serviceIp_ = world.allocateAddress(asn);
}

void Deployment::freezeUpdates() {
  frozenDb_ = vendor_->masterDb();
  policy_.receivesUpdates = false;
}

bool Deployment::isOffline(const simnet::InterceptContext& ctx) const {
  return policy_.offlineProbability > 0.0 && ctx.rng != nullptr &&
         ctx.rng->chance(policy_.offlineProbability);
}

bool Deployment::syncedLocally(std::string_view host) const {
  if (policy_.syncCoverage >= 1.0) return true;
  if (policy_.syncCoverage <= 0.0) return false;
  // Key coverage on the registrable domain so www.x and x agree. The salt
  // is mixed through a finalizer so that nearby salts give independent
  // inclusion sets. Callers pass Url::host(), normalized lowercase at parse
  // time, so the suffix view hashes the same bytes the lowercased copy did.
  const std::string_view domain = net::registrableDomainView(host);
  std::uint64_t h = fnv1a64(domain) ^ policy_.syncSalt;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return unit < policy_.syncCoverage;
}

void Deployment::effectiveCategoriesInto(const net::Url& url,
                                         util::SimTime now,
                                         CategorySet& out) const {
  policy_.customDb.categorizeInto(url, out);
  const CategoryDatabase& db =
      (frozenDb_ && !policy_.receivesUpdates) ? *frozenDb_ : vendor_->masterDb();
  if (syncedLocally(url.host())) {
    // Updates pushed by the vendor reach the box `updateLagHours` later.
    db.categorizeAsOfInto(url, now - policy_.updateLagHours, out);
  }
}

std::set<CategoryId> Deployment::effectiveCategories(const net::Url& url,
                                                     util::SimTime now) const {
  CategorySet scratch;
  effectiveCategoriesInto(url, now, scratch);
  return scratch.toSet();
}

std::uint64_t Deployment::stateEpoch() const {
  std::uint64_t epoch =
      vendor_->masterDb().mutationCount() + policy_.customDb.mutationCount();
  // The snapshot's presence flips which database is consulted, so freezing
  // itself must advance the epoch even though the snapshot never mutates.
  if (frozenDb_) epoch += frozenDb_->mutationCount() + 1;
  return epoch;
}

simnet::Cacheability Deployment::cacheability(
    const simnet::VantagePoint& vantage) const {
  (void)vantage;
  if (policy_.offlineProbability > 0.0) return simnet::Cacheability::kNone;
  return policy_.queueAccessedUrls ? simnet::Cacheability::kLocal
                                   : simnet::Cacheability::kShared;
}

bool Deployment::isOwnServiceTraffic(const http::Request& request) const {
  if (serviceIp_ == net::Ipv4Addr{}) return false;
  // Only a canonical dotted quad parses, so this equals comparing the host
  // with serviceIp_'s text, without formatting it per request.
  return net::Ipv4Addr::parse(request.url.host()) == serviceIp_;
}

std::optional<simnet::Preempt> Deployment::onRequest(
    simnet::PathContext& path) {
  const http::Request& request = path.request();
  const simnet::InterceptContext& ctx = path.policy;
  // Vendor-side queues advance lazily with simulated time.
  vendor_->processUntil(ctx.now);
  ++requestsSeen_;

  if (isOwnServiceTraffic(request)) return std::nullopt;

  if (auto action = preIntercept(request, ctx)) return action;

  if (isOffline(ctx)) return std::nullopt;

  // Per-request fast path: one reused scratch set, no node allocations.
  // The common outcome — uncategorized, pass through — touches the heap
  // not at all once the scratch has warmed up.
  thread_local CategorySet categories;
  categories.clear();
  effectiveCategoriesInto(request.url, ctx.now, categories);
  std::set<CategoryId> blocked;
  for (const CategoryId category : categories)
    if (policy_.blockedCategories.count(category) != 0)
      blocked.insert(category);
  if (!blocked.empty()) {
    ++requestsBlocked_;
    for (const auto category : blocked) ++blocksByCategory_[category];
    return buildBlockAction(request, blocked, ctx);
  }

  if (policy_.queueAccessedUrls && categories.empty())
    vendor_->queueForCategorization(request.url, ctx.now);
  return std::nullopt;
}

}  // namespace urlf::filters
