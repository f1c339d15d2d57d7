#ifndef URLF_FILTERS_SMARTFILTER_H
#define URLF_FILTERS_SMARTFILTER_H

#include "filters/deployment.h"

namespace urlf::filters {

/// McAfee SmartFilter, as shipped in McAfee Web Gateway (MWG).
///
/// Signature behaviour (Table 2): block pages carry a Via header naming
/// "McAfee Web Gateway" and an HTML title containing the same; the paper's
/// Shodan keywords are "mcafee web gateway" and "url blocked".
/// Blocking is at hostname granularity (§4.6).
class SmartFilterDeployment : public Deployment {
 public:
  SmartFilterDeployment(std::string deploymentName, Vendor& vendor,
                        FilterPolicy policy);

  void installExternalSurfaces(simnet::World& world, std::uint32_t asn) override;

  /// The gateway hostname stamped into Via headers.
  [[nodiscard]] const std::string& gatewayHost() const { return gatewayHost_; }

  /// The block page exactly as emitted in-path (exposed for the external
  /// notification service and tests).
  [[nodiscard]] http::Response makeBlockPage(
      const net::Url& url, const std::set<CategoryId>& categories) const;

 protected:
  simnet::Preempt buildBlockAction(
      const http::Request& request, const std::set<CategoryId>& blockedCategories,
      const simnet::InterceptContext& ctx) override;

 private:
  std::string gatewayHost_;
};

}  // namespace urlf::filters

#endif  // URLF_FILTERS_SMARTFILTER_H
