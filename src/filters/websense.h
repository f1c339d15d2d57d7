#ifndef URLF_FILTERS_WEBSENSE_H
#define URLF_FILTERS_WEBSENSE_H

#include <optional>

#include "filters/deployment.h"

namespace urlf::filters {

/// Concurrent-user licensing for a Websense installation.
///
/// Prior ONI work observed a Yemeni ISP running Websense with a limited
/// number of concurrent user licenses: "when the number of users exceeded
/// the number of licenses no content would be filtered" (§4.4). Active users
/// follow a diurnal curve with jitter; any exchange arriving while the
/// installation is over-license passes unfiltered.
struct LicenseModel {
  int licenses = 1000;
  int baseUsers = 600;      ///< midnight load
  int peakExtraUsers = 800; ///< additional load at the daily peak
  int jitter = 100;         ///< uniform +/- jitter per exchange
};

/// Websense Web Security / Content Gateway.
///
/// Signature behaviour (Table 2): blocking redirects the client to a host on
/// port 15871 with a "ws-session" parameter to fetch blockpage.cgi; Shodan
/// keywords are "blockpage.cgi" and "gateway websense".
class WebsenseDeployment : public Deployment {
 public:
  WebsenseDeployment(std::string deploymentName, Vendor& vendor,
                     FilterPolicy policy);

  void setLicenseModel(LicenseModel model) { licenseModel_ = model; }
  [[nodiscard]] const std::optional<LicenseModel>& licenseModel() const {
    return licenseModel_;
  }

  /// Simulated concurrent users at `now` (diurnal curve + jitter).
  [[nodiscard]] int activeUsers(util::SimTime now, util::Rng& rng) const;

  void installExternalSurfaces(simnet::World& world, std::uint32_t asn) override;

  [[nodiscard]] bool isOffline(const simnet::InterceptContext& ctx) const override;

  /// The license model draws RNG jitter per exchange — verdicts must be
  /// re-drawn, never memoized.
  [[nodiscard]] simnet::Cacheability cacheability(
      const simnet::VantagePoint& vantage) const override {
    return licenseModel_ ? simnet::Cacheability::kNone
                         : Deployment::cacheability(vantage);
  }

  /// The block page served from :15871/cgi-bin/blockpage.cgi.
  [[nodiscard]] http::Response makeBlockPage(
      const std::optional<std::string>& blockedUrl) const;

 protected:
  simnet::Preempt buildBlockAction(
      const http::Request& request, const std::set<CategoryId>& blockedCategories,
      const simnet::InterceptContext& ctx) override;

 private:
  std::optional<LicenseModel> licenseModel_;
  mutable std::uint64_t sessionCounter_ = 7000;
};

}  // namespace urlf::filters

#endif  // URLF_FILTERS_WEBSENSE_H
