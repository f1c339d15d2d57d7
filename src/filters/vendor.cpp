#include "filters/vendor.h"

#include <algorithm>

#include "http/html.h"
#include "filters/fixed_endpoint.h"
#include "simnet/origin_server.h"
#include "simnet/transport.h"
#include "util/strings.h"

namespace urlf::filters {

namespace {

/// Content-marker -> vendor category name. The vendor classifier looks for
/// these markers in the page body, the way commercial classifiers key on
/// page features (the Glype script, explicit imagery, ...).
struct Marker {
  std::string_view needle;        ///< body substring (case-insensitive)
  std::string_view categoryName;  ///< vendor-scheme category name
};

std::vector<Marker> markersFor(ProductKind kind) {
  switch (kind) {
    case ProductKind::kBlueCoat:
      return {{"glype", "Proxy Avoidance"},
              {"browse the web anonymously", "Proxy Avoidance"},
              {"adult content", "Pornography"},
              {"independent news", "News/Media"}};
    case ProductKind::kSmartFilter:
      return {{"glype", "Anonymizers"},
              {"browse the web anonymously", "Anonymizers"},
              {"adult content", "Pornography"},
              {"independent news", "General News"}};
    case ProductKind::kNetsweeper:
      return {{"glype", "Proxy Anonymizer"},
              {"browse the web anonymously", "Proxy Anonymizer"},
              {"adult content", "Pornography"},
              {"independent news", "General News"}};
    case ProductKind::kWebsense:
      return {{"glype", "Proxy Avoidance"},
              {"browse the web anonymously", "Proxy Avoidance"},
              {"adult content", "Adult Content"},
              {"independent news", "News and Media"}};
  }
  return {};
}

}  // namespace

Vendor::Vendor(ProductKind kind, simnet::World& world, VendorConfig config)
    : kind_(kind),
      world_(&world),
      config_(config),
      scheme_(schemeFor(kind)),
      rng_(world.rng().fork()) {
  vendorVantage_.name = std::string(toString(kind)) + "-hq";
  vendorVantage_.countryAlpha2 = "US";
  vendorVantage_.isp = nullptr;  // vendors crawl from unfiltered networks
}

namespace {

std::string portalHostFor(ProductKind kind) {
  switch (kind) {
    case ProductKind::kBlueCoat: return "sitereview.bluecoat.com";
    case ProductKind::kSmartFilter: return "trustedsource.mcafee.example";
    case ProductKind::kNetsweeper: return "testasite.netsweeper.com";
    case ProductKind::kWebsense: return "csi.websense.example";
  }
  return "portal.example";
}

}  // namespace

void Vendor::installInfrastructure(std::uint32_t asn) {
  // The public submission portal — the interface the methodology actually
  // exercises ("many of these products accept user-submitted sites for
  // blocking", abstract). GET /submit?url=..&category=..&submitter=..
  {
    const std::string host = portalHostFor(kind_);
    auto& portal = world_->makeEndpoint<FixedEndpoint>(
        std::string(toString(kind_)) + " submission portal",
        [this](const http::Request& req, util::SimTime) -> http::Response {
          if (req.url.path() != "/submit") {
            // Neutral landing page: real vendor portals are separate web
            // properties that do not carry the appliance's banner.
            return http::Response::make(
                http::Status::kOk,
                http::makePage("Site Review",
                               "<h1>Submit a site for categorization</h1>"
                               "<form action=\"/submit\">"
                               "<input name=\"url\"/><input name=\"category\"/>"
                               "<input name=\"submitter\"/></form>"));
          }
          const auto url = net::queryParam(req.url.query(), "url");
          const auto category = net::queryParam(req.url.query(), "category");
          const auto submitter = net::queryParam(req.url.query(), "submitter");
          if (!url || !category || !submitter)
            return http::Response::make(
                http::Status::kBadRequest,
                http::makePage("Bad Request", "<p>missing parameters</p>"));
          const auto parsedUrl = net::Url::parse(*url);
          CategoryId categoryId = 0;
          for (const char c : *category) {
            if (c < '0' || c > '9') {
              categoryId = -1;
              break;
            }
            categoryId = categoryId * 10 + (c - '0');
          }
          if (!parsedUrl || categoryId <= 0 || !scheme_.byId(categoryId))
            return http::Response::make(
                http::Status::kBadRequest,
                http::makePage("Bad Request", "<p>invalid url/category</p>"));
          const int ticket = submitUrl(*parsedUrl, categoryId, *submitter);
          return http::Response::make(
              http::Status::kOk,
              http::makePage("Submission received",
                             "<p>Thank you. Ticket #" + std::to_string(ticket) +
                                 ". Reviews typically take 3-5 days.</p>"));
        });
    const auto ip = world_->allocateAddress(asn);
    world_->bind(ip, 80, portal, /*externallyVisible=*/true);
    world_->registerHostname(host, ip);
    portalUrl_ = "http://" + host + "/submit";
  }

  if (kind_ == ProductKind::kBlueCoat) {
    // www.cfauth.com — the hosted service Blue Coat block redirects point at
    // ("Location header contains hostname www.cfauth.com", Table 2).
    auto& server = world_->makeEndpoint<simnet::OriginServer>(
        "www.cfauth.com", "BlueCoat-Security-Appliance");
    simnet::Page page;
    page.title = "Blue Coat Systems - Access Denied";
    page.body =
        "<h1>Access Denied</h1><p>Your request was denied by the network "
        "content policy.</p>";
    page.contentLabel = "block-service";
    server.setPage("/", page);
    server.setCatchAll(page);
    const auto ip = world_->allocateAddress(asn);
    world_->bind(ip, 80, server, /*externallyVisible=*/true);
    world_->registerHostname("www.cfauth.com", ip);
  }
  if (kind_ == ProductKind::kNetsweeper) {
    // denypagetests.netsweeper.com — operators request
    // /category/catno/<N> and a blocked category yields the deny page
    // (§4.4). When the category is NOT blocked the request reaches this
    // origin, which reports the category as unfiltered.
    auto& server = world_->makeEndpoint<simnet::OriginServer>(
        "denypagetests.netsweeper.com", "Apache");
    simnet::Page page;
    page.title = "Netsweeper Deny Page Tests";
    page.body =
        "<h1>Category test</h1><p>This category is not being filtered on "
        "your network.</p>";
    page.contentLabel = "vendor-tool";
    server.setPage("/", page);
    server.setCatchAll(page);
    const auto ip = world_->allocateAddress(asn);
    world_->bind(ip, 80, server, /*externallyVisible=*/true);
    world_->registerHostname("denypagetests.netsweeper.com", ip);
  }
}

int Vendor::submitUrl(const net::Url& url, CategoryId suggestedCategory,
                      std::string submitterId) {
  Submission s;
  s.ticket = nextTicket_++;
  s.url = url;
  s.suggestedCategory = suggestedCategory;
  s.submitterId = std::move(submitterId);
  s.submittedAt = world_->now();
  const auto latency = static_cast<std::int64_t>(
      rng_.uniform(static_cast<std::uint64_t>(config_.reviewLatencyMinHours),
                   static_cast<std::uint64_t>(config_.reviewLatencyMaxHours)));
  s.reviewAt = s.submittedAt + latency;
  nextDue_ = std::min(nextDue_, s.reviewAt);
  submissions_.push_back(std::move(s));
  return submissions_.back().ticket;
}

void Vendor::queueForCategorization(const net::Url& url, util::SimTime now) {
  // De-duplicate: one pending crawl per host.
  if (queuedHosts_.contains(url.host()) || masterDb_.isCategorized(url)) return;
  queuedHosts_.insert(url.host());
  queue_.push_back({url, now + config_.queueLatencyHours});
  nextDue_ = std::min(nextDue_, queue_.back().dueAt);
}

void Vendor::processUntil(util::SimTime now) {
  if (now < nextDue_) return;
  util::SimTime nextDue{std::numeric_limits<std::int64_t>::max()};
  for (auto& s : submissions_) {
    if (s.state != Submission::State::kPending) continue;
    if (s.reviewAt <= now)
      reviewSubmission(s);
    else
      nextDue = std::min(nextDue, s.reviewAt);
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    QueuedUrl& q = queue_[i];
    if (q.dueAt > now) {
      nextDue = std::min(nextDue, q.dueAt);
      if (kept != i) queue_[kept] = std::move(q);
      ++kept;
      continue;
    }
    queuedHosts_.erase(q.url.host());
    if (!rng_.chance(config_.queueCategorizeProbability)) continue;  // dropped
    if (const auto category = crawlAndClassify(q.url))
      masterDb_.addHost(q.url.host(), *category, q.dueAt);
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept),
               queue_.end());
  nextDue_ = nextDue;
}

void Vendor::reviewSubmission(Submission& submission) {
  // Evasion tactic (§6.2): ignore known measurement submitters.
  if (disregardedSubmitters_.contains(submission.submitterId)) {
    submission.state = Submission::State::kRejected;
    submission.note = "submitter disregarded";
    return;
  }
  // Evasion tactic (§6.2): ignore sites hosted at suspicious providers.
  if (!disregardedAsns_.empty()) {
    if (const auto ip = world_->resolve(submission.url.host())) {
      const auto asnDb = world_->buildAsnDatabase();
      if (const auto rec = asnDb.lookup(*ip);
          rec && disregardedAsns_.contains(rec->asn)) {
        submission.state = Submission::State::kRejected;
        submission.note = "hosting provider disregarded";
        return;
      }
    }
  }

  if (config_.verifyByCrawl) {
    const auto category = crawlAndClassify(submission.url);
    if (!category) {
      submission.state = Submission::State::kRejected;
      submission.note = "content did not classify";
      return;
    }
    if (*category != submission.suggestedCategory) {
      // Reviewers trust their own classifier over the submitter's label.
      submission.suggestedCategory = *category;
    }
  }
  if (!rng_.chance(config_.acceptProbability)) {
    submission.state = Submission::State::kRejected;
    submission.note = "rejected by reviewer";
    return;
  }
  submission.state = Submission::State::kAccepted;
  submission.note = "added to database";
  masterDb_.addHost(submission.url.host(), submission.suggestedCategory,
                    submission.reviewAt);
}

std::optional<CategoryId> Vendor::crawlAndClassify(const net::Url& url) {
  simnet::Transport transport{*world_};
  // Professional review crawlers ride out transient substrate faults: a
  // submission must not silently fail categorization because one fetch hit
  // an injected DNS flap or timeout (the simulated-clock backoff is noise
  // at the review queue's day granularity).
  simnet::FetchOptions options;
  options.followRedirects = true;
  options.retry.maxAttempts = 4;
  options.retry.retryOnConnectFailure = true;
  const auto result =
      transport.fetch(vendorVantage_, http::Request::get(url), options);
  if (!result.ok() || !result.response->isSuccess()) return std::nullopt;
  return classifyContent(result.response->body);
}

std::optional<CategoryId> Vendor::classifyContent(
    const std::string& body) const {
  for (const auto& marker : markersFor(kind_)) {
    if (!util::icontains(body, marker.needle)) continue;
    if (const auto category = scheme_.byName(marker.categoryName))
      return category->id;
  }
  return std::nullopt;
}

void Vendor::disregardSubmitter(std::string submitterId) {
  disregardedSubmitters_.insert(std::move(submitterId));
}

void Vendor::disregardHostingAsn(std::uint32_t asn) {
  disregardedAsns_.insert(asn);
}

}  // namespace urlf::filters
