#ifndef URLF_FILTERS_BLUECOAT_H
#define URLF_FILTERS_BLUECOAT_H

#include <algorithm>

#include "filters/deployment.h"

namespace urlf::filters {

/// Blue Coat ProxySG with the optional Blue Coat Web Filter database.
///
/// Signature behaviour (Table 2): block redirects whose Location points at
/// www.cfauth.com with a "cfru=" parameter; "ProxySG" appears in the
/// management console banner. A ProxySG can also run a third-party filtering
/// engine (e.g. McAfee SmartFilter) instead of Web Filter — the tandem
/// arrangement the paper found in Etisalat (Challenge 3, §4.5): category
/// submissions to Blue Coat then have no effect on blocking.
class BlueCoatProxySG : public Deployment {
 public:
  BlueCoatProxySG(std::string deploymentName, Vendor& vendor,
                  FilterPolicy policy);

  /// Delegate URL-filtering decisions to another product running on this
  /// appliance (Challenge 3). The ProxySG keeps providing traffic
  /// management; its own Web Filter database is no longer consulted.
  void setFilteringEngine(Deployment& engine) { engine_ = &engine; }
  [[nodiscard]] bool hasFilteringEngine() const { return engine_ != nullptr; }

  void installExternalSurfaces(simnet::World& world, std::uint32_t asn) override;

  std::optional<simnet::Preempt> onRequest(simnet::PathContext& ctx) override;

  void onResponse(simnet::PathContext& ctx, http::Response& response) override;

  /// The tandem delegates filtering, so the engine's dice and side effects
  /// (e.g. a queue-on-access Netsweeper) are this box's too.
  [[nodiscard]] simnet::Cacheability cacheability(
      const simnet::VantagePoint& vantage) const override {
    const simnet::Cacheability own = Deployment::cacheability(vantage);
    return engine_ != nullptr ? std::min(own, engine_->cacheability(vantage))
                              : own;
  }

 protected:
  simnet::Preempt buildBlockAction(
      const http::Request& request, const std::set<CategoryId>& blockedCategories,
      const simnet::InterceptContext& ctx) override;

 private:
  [[nodiscard]] std::string cfauthRedirect(const net::Url& url) const;

  Deployment* engine_ = nullptr;
  std::string applianceHost_;
};

}  // namespace urlf::filters

#endif  // URLF_FILTERS_BLUECOAT_H
