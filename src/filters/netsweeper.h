#ifndef URLF_FILTERS_NETSWEEPER_H
#define URLF_FILTERS_NETSWEEPER_H

#include <optional>

#include "filters/deployment.h"

namespace urlf::filters {

/// Netsweeper Content Filtering.
///
/// Signature behaviour (Table 2): a WebAdmin management console at
/// ":8080/webadmin/" and deny pages under "webadmin/deny". Two behaviours
/// the paper documents are modeled here:
///  * in-country accesses to uncategorized URLs are queued for vendor
///    categorization (§4.4) — enabled via FilterPolicy::queueAccessedUrls;
///  * the vendor's operator tool denypagetests.netsweeper.com/category/
///    catno/<N> returns the deny page iff category N is blocked (§4.4).
class NetsweeperDeployment : public Deployment {
 public:
  NetsweeperDeployment(std::string deploymentName, Vendor& vendor,
                       FilterPolicy policy);

  void installExternalSurfaces(simnet::World& world, std::uint32_t asn) override;

  /// The deny page served at :8080/webadmin/deny.php.
  [[nodiscard]] http::Response makeDenyPage(
      const std::optional<std::string>& blockedUrl,
      const std::set<CategoryId>& categories) const;

  /// Parse "/category/catno/<N>" into N; nullopt for other paths.
  static std::optional<CategoryId> parseCategoryProbePath(
      std::string_view path);

 protected:
  std::optional<simnet::Preempt> preIntercept(
      const http::Request& request,
      const simnet::InterceptContext& ctx) override;

  simnet::Preempt buildBlockAction(
      const http::Request& request, const std::set<CategoryId>& blockedCategories,
      const simnet::InterceptContext& ctx) override;
};

}  // namespace urlf::filters

#endif  // URLF_FILTERS_NETSWEEPER_H
