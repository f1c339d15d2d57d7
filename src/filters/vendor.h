#ifndef URLF_FILTERS_VENDOR_H
#define URLF_FILTERS_VENDOR_H

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "filters/category.h"
#include "filters/category_db.h"
#include "net/url.h"
#include "simnet/world.h"
#include "util/clock.h"
#include "util/rng.h"

namespace urlf::filters {

/// One user-submitted URL awaiting (or past) vendor review.
struct Submission {
  int ticket = 0;
  net::Url url;
  CategoryId suggestedCategory = 0;
  std::string submitterId;  ///< the e-mail/IP identity used for the submission
  util::SimTime submittedAt;
  util::SimTime reviewAt;  ///< when the vendor's reviewers get to it (3-5 days)

  enum class State { kPending, kAccepted, kRejected };
  State state = State::kPending;
  std::string note;
};

/// Vendor-side behaviour knobs.
struct VendorConfig {
  /// Review latency window in hours — "After 3-5 days, we retest" (§4.2).
  std::int64_t reviewLatencyMinHours = 72;
  std::int64_t reviewLatencyMaxHours = 120;
  /// Verify submissions by crawling the site and classifying its content
  /// before accepting (vendors guard database quality).
  bool verifyByCrawl = true;
  /// Acceptance probability applied after (optional) content verification.
  double acceptProbability = 1.0;
  /// Netsweeper-style auto-categorization of URLs queued after in-country
  /// access (§4.4): latency and per-URL success probability. The latency is
  /// longer than submission review — the paper's Blue Coat control
  /// experiments in Ooredoo pre-tested proxy sites without them becoming
  /// blocked within the test window (Table 3: 0/3), yet "eventually may be
  /// blocked" (§4.4).
  std::int64_t queueLatencyHours = 240;
  double queueCategorizeProbability = 0.6;
};

/// A URL-filtering vendor: the company-side half of a product.
///
/// Owns the master category database (the product's key business asset,
/// §6.2), the public submission portal ("test-a-site"), the categorization
/// queue, and vendor-operated infrastructure (Blue Coat's cfauth.com block
/// service, Netsweeper's denypagetests.netsweeper.com).
class Vendor {
 public:
  Vendor(ProductKind kind, simnet::World& world, VendorConfig config = {});

  Vendor(const Vendor&) = delete;
  Vendor& operator=(const Vendor&) = delete;

  [[nodiscard]] ProductKind kind() const { return kind_; }
  [[nodiscard]] const CategoryScheme& scheme() const { return scheme_; }
  [[nodiscard]] CategoryDatabase& masterDb() { return masterDb_; }
  [[nodiscard]] const CategoryDatabase& masterDb() const { return masterDb_; }
  [[nodiscard]] const VendorConfig& config() const { return config_; }

  /// Stand up vendor-operated Internet infrastructure inside `asn`:
  /// Blue Coat registers www.cfauth.com; Netsweeper registers
  /// denypagetests.netsweeper.com with its 66 category test paths; every
  /// vendor registers its public submission portal (see portalUrl()).
  void installInfrastructure(std::uint32_t asn);

  /// URL of the vendor's Web submission portal ("test-a-site" [20] /
  /// SmartFilter URL submission), once installInfrastructure has run.
  /// Submissions arrive as GET /submit?url=..&category=..&submitter=..;
  /// the portal answers with the ticket id. Empty before installation.
  [[nodiscard]] const std::string& portalUrl() const { return portalUrl_; }

  // --- public submission portal -------------------------------------------

  /// Submit a site for categorization. Returns the ticket id.
  int submitUrl(const net::Url& url, CategoryId suggestedCategory,
                std::string submitterId);

  /// Netsweeper-style: queue a URL seen (uncategorized) inside a customer
  /// network for later automatic categorization.
  void queueForCategorization(const net::Url& url, util::SimTime now);

  /// Advance vendor-side processing (reviews, crawl queue) to `now`.
  /// Idempotent; deployments call this lazily before each decision.
  ///
  /// A due-time watermark (the earliest pending reviewAt or dueAt) makes a
  /// call with nothing due return at once. It keeps the order of the
  /// RNG draws: a call with nothing due draws nothing either way, and a
  /// call with work due still reviews every due submission in submission
  /// order, then every due queue entry in queue order, as a full scan does.
  /// The queue is compacted in place, so entries not yet due keep their
  /// order for later calls.
  void processUntil(util::SimTime now);

  [[nodiscard]] const std::vector<Submission>& submissions() const {
    return submissions_;
  }
  [[nodiscard]] std::size_t pendingQueueSize() const { return queue_.size(); }

  // --- evasion tactics (Table 5, §6.2) --------------------------------------

  /// Disregard all submissions from this submitter identity.
  void disregardSubmitter(std::string submitterId);
  /// Disregard submissions whose site is hosted in this AS.
  void disregardHostingAsn(std::uint32_t asn);

  /// Classify fetched content the way a vendor's automated classifier would:
  /// inspect the body for known markers. Returns the vendor category, if any.
  [[nodiscard]] std::optional<CategoryId> classifyContent(
      const std::string& body) const;

 private:
  struct QueuedUrl {
    net::Url url;
    util::SimTime dueAt;
  };

  /// Crawl the URL from the vendor's own network and classify it.
  [[nodiscard]] std::optional<CategoryId> crawlAndClassify(const net::Url& url);

  void reviewSubmission(Submission& submission);

  ProductKind kind_;
  simnet::World* world_;
  VendorConfig config_;
  CategoryScheme scheme_;
  CategoryDatabase masterDb_;
  util::Rng rng_;
  simnet::VantagePoint vendorVantage_;
  std::vector<Submission> submissions_;
  std::vector<QueuedUrl> queue_;
  std::unordered_set<std::string> queuedHosts_;  ///< the hosts in queue_
  /// Earliest reviewAt of a pending submission or dueAt in queue_.
  util::SimTime nextDue_{std::numeric_limits<std::int64_t>::max()};
  std::set<std::string> disregardedSubmitters_;
  std::set<std::uint32_t> disregardedAsns_;
  std::string portalUrl_;
  int nextTicket_ = 1;
};

}  // namespace urlf::filters

#endif  // URLF_FILTERS_VENDOR_H
