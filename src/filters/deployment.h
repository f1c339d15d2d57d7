#ifndef URLF_FILTERS_DEPLOYMENT_H
#define URLF_FILTERS_DEPLOYMENT_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "filters/policy.h"
#include "filters/vendor.h"
#include "net/ipv4.h"
#include "simnet/middlebox.h"
#include "simnet/world.h"

namespace urlf::filters {

/// One installation of a URL-filtering product inside an ISP.
///
/// A deployment is an in-path middlebox: it classifies every outbound
/// subscriber request against the vendor database (as locally synced) plus
/// the operator's custom database, and blocks per the operator's policy.
/// Concrete products override the block-page construction (their signature
/// behaviour, Table 2) and may expose external management surfaces.
class Deployment : public simnet::Middlebox {
 public:
  Deployment(std::string deploymentName, Vendor& vendor, FilterPolicy policy);

  [[nodiscard]] std::string name() const override { return deploymentName_; }
  [[nodiscard]] Vendor& vendor() { return *vendor_; }
  [[nodiscard]] const Vendor& vendor() const { return *vendor_; }
  [[nodiscard]] ProductKind kind() const { return vendor_->kind(); }
  [[nodiscard]] FilterPolicy& policy() { return policy_; }
  [[nodiscard]] const FilterPolicy& policy() const { return policy_; }

  /// The public IP the installation's service surfaces live on (set by
  /// installExternalSurfaces).
  [[nodiscard]] net::Ipv4Addr serviceIp() const { return serviceIp_; }

  /// Allocate a service IP in `asn` and bind this product's management /
  /// block-page endpoints. Visibility follows policy().externallyVisible.
  /// Default implementation allocates the IP only; products override to add
  /// their consoles and must call the base first.
  virtual void installExternalSurfaces(simnet::World& world, std::uint32_t asn);

  /// Stop receiving vendor updates: snapshot the master DB now and use the
  /// snapshot from here on (Websense/Yemen 2009 [35]).
  void freezeUpdates();

  /// Classify `ctx.request()` under the policy view `ctx.policy` and block
  /// per the operator's policy.
  std::optional<simnet::Preempt> onRequest(simnet::PathContext& ctx) override;

  /// Covers every database whose mutation can change a verdict: the vendor
  /// master DB, the operator's custom DB, and the frozen snapshot (whose
  /// presence itself flips which DB is consulted).
  [[nodiscard]] std::uint64_t stateEpoch() const override;

  /// kNone when this deployment rolls dice per exchange (offlineProbability)
  /// — its verdicts must be re-drawn, never memoized or replay-skipped.
  /// kLocal for queue-on-access deployments (§4.4): each fetch mutates the
  /// vendor crawl queue, so their verdicts must not be shared across
  /// session worlds.
  [[nodiscard]] simnet::Cacheability cacheability(
      const simnet::VantagePoint& vantage) const override;

  // --- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t requestsSeen() const { return requestsSeen_; }
  [[nodiscard]] std::uint64_t requestsBlocked() const { return requestsBlocked_; }
  /// Blocks tallied by the category that triggered them (every category of
  /// a multi-category block is counted).
  [[nodiscard]] const std::map<CategoryId, std::uint64_t>& blocksByCategory()
      const {
    return blocksByCategory_;
  }

  /// The categories (vendor scheme) that apply to a URL under this
  /// deployment's view of the database at time `now` (honouring sync
  /// coverage, update lag, and frozen snapshots). Exposed for tests and
  /// benches.
  [[nodiscard]] std::set<CategoryId> effectiveCategories(
      const net::Url& url, util::SimTime now) const;

  /// Allocation-free variant: unions into `out` (does not clear). This is
  /// the per-request path onRequest() runs.
  void effectiveCategoriesInto(const net::Url& url, util::SimTime now,
                               CategorySet& out) const;

 protected:
  /// Build this product's signature block behaviour for a request that
  /// matched `blockedCategories`.
  [[nodiscard]] virtual simnet::Preempt buildBlockAction(
      const http::Request& request, const std::set<CategoryId>& blockedCategories,
      const simnet::InterceptContext& ctx) = 0;

  /// Hook consulted before everything else; lets products claim a request
  /// outright (e.g. Netsweeper's denypagetests category probes).
  [[nodiscard]] virtual std::optional<simnet::Preempt> preIntercept(
      const http::Request& request, const simnet::InterceptContext& ctx) {
    (void)request;
    (void)ctx;
    return std::nullopt;
  }

  /// Whether this exchange bypasses filtering (license overload, §4.4).
  /// Products with richer availability models (Websense's concurrent-user
  /// licenses) override this.
  [[nodiscard]] virtual bool isOffline(const simnet::InterceptContext& ctx) const;

  /// True when the master-DB entry for this host is present in the local
  /// sync (per-host deterministic under policy().syncCoverage).
  [[nodiscard]] bool syncedLocally(std::string_view host) const;

  void setServiceIp(net::Ipv4Addr ip) { serviceIp_ = ip; }

 private:
  /// Requests to the deployment's own service IP (deny pages, block pages)
  /// must never be filtered or they could not be delivered.
  [[nodiscard]] bool isOwnServiceTraffic(const http::Request& request) const;

  std::string deploymentName_;
  Vendor* vendor_;
  FilterPolicy policy_;
  net::Ipv4Addr serviceIp_{};
  std::optional<CategoryDatabase> frozenDb_;
  std::uint64_t requestsSeen_ = 0;
  std::uint64_t requestsBlocked_ = 0;
  std::map<CategoryId, std::uint64_t> blocksByCategory_;
};

}  // namespace urlf::filters

#endif  // URLF_FILTERS_DEPLOYMENT_H
