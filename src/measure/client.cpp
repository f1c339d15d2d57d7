#include "measure/client.h"

#include <algorithm>

#include "measure/shared_memo.h"
#include "util/thread_pool.h"

namespace urlf::measure {

std::string_view toString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAccessible: return "accessible";
    case Verdict::kBlocked: return "blocked";
    case Verdict::kBlockedOther: return "blocked-other";
    case Verdict::kInconclusive: return "inconclusive";
    case Verdict::kError: return "error";
    case Verdict::kContested: return "contested";
  }
  return "unknown";
}

std::string_view toString(Provenance provenance) {
  switch (provenance) {
    case Provenance::kConfirmed: return "confirmed";
    case Provenance::kDegraded: return "degraded";
  }
  return "unknown";
}

Client::Client(simnet::World& world, const simnet::VantagePoint& field,
               const simnet::VantagePoint& lab,
               simnet::FetchOptions fetchOptions)
    : world_(&world),
      transport_(world),
      field_(&field),
      lab_(&lab),
      fetchOptions_(fetchOptions) {}

Verdict Client::compare(const simnet::FetchResult& field,
                        const simnet::FetchResult& lab,
                        const std::optional<BlockPageMatch>& blockPage) {
  // If the lab cannot reach the site, the site is simply down; nothing can
  // be concluded about censorship.
  if (!lab.ok() || !lab.response->isSuccess()) return Verdict::kError;

  if (blockPage) return Verdict::kBlocked;

  switch (field.outcome) {
    case simnet::FetchOutcome::kOk:
      break;
    case simnet::FetchOutcome::kReset:
    case simnet::FetchOutcome::kTimeout:
      // Censorship via RST/blackholing — the ambiguity the paper avoids by
      // testing products with explicit block pages (§4.1).
      return Verdict::kBlockedOther;
    case simnet::FetchOutcome::kDnsFailure:
    case simnet::FetchOutcome::kConnectFailure:
      return Verdict::kInconclusive;
    case simnet::FetchOutcome::kBadUrl:
      // A parse error is a test-list defect, not a network observation (and
      // the lab fetch of the same URL fails first in practice).
      return Verdict::kError;
  }

  if (field.response->statusCode != lab.response->statusCode)
    return Verdict::kBlockedOther;
  if (field.response->body == lab.response->body) return Verdict::kAccessible;
  // Same status, different content: transparent rewriting we cannot
  // attribute to a vendor.
  return Verdict::kInconclusive;
}

simnet::Cacheability Client::cacheability() const {
  return std::min(transport_.cacheability(*field_),
                  transport_.cacheability(*lab_));
}

Client::MemoEpoch Client::currentEpoch() const {
  return MemoEpoch{world_->middleboxStateEpoch(), world_->now().hours()};
}

void Client::attachSharedMemo(SharedVerdictStore* store, std::uint64_t scope) {
  shared_ = store;
  sharedScope_ = scope;
  // A shared hit skips this world's fetch entirely, so beyond determinism
  // (the per-client memo's bar) every stage must also be side-effect free.
  sharedSafe_ =
      store != nullptr && cacheability() == simnet::Cacheability::kShared;
}

std::optional<UrlTestResult> Client::sharedLookup(const std::string& url,
                                                  const MemoEpoch& epoch) {
  const SharedVerdictStore::Key key{sharedScope_,
                                    epoch.boxes,
                                    epoch.now,
                                    field_->name,
                                    lab_->name,
                                    url};
  auto hit = shared_->lookup(key);
  if (hit) {
    ++sharedHits_;
    // Promote to the local memo so repeats stay off the shard lock.
    memo_.emplace(url, *hit);
  }
  return hit;
}

void Client::sharedInsert(const UrlTestResult& result, const MemoEpoch& epoch) {
  const SharedVerdictStore::Key key{sharedScope_,
                                    epoch.boxes,
                                    epoch.now,
                                    field_->name,
                                    lab_->name,
                                    result.url};
  shared_->insert(key, result);
}

void Client::enableVerdictMemo(bool enabled) {
  memoEnabled_ = enabled;
  // Re-check the paths each time: a stage attached (or reconfigured) after
  // construction must be able to veto memoization.
  memoSafe_ = enabled && cacheability() >= simnet::Cacheability::kLocal;
  if (!verdictMemoActive()) clearVerdictMemo();
}

void Client::clearVerdictMemo() {
  memo_.clear();
  memoEpoch_ = MemoEpoch{};
  memoHits_ = 0;
}

std::optional<BlockPageMatch> Client::classify(
    const simnet::FetchResult& field) const {
  return classifyMode_ == ClassifyMode::kReference
             ? classifyBlockPageReference(field, builtinBlockPagePatterns())
             : classifyBlockPage(field);
}

void Client::fetchBoth(const std::string& url, UrlTestResult& out) {
  out.url = url;
  if (auto parsed = net::Url::parse(url)) {
    const auto request = http::Request::get(std::move(*parsed));
    out.field = transport_.fetch(*field_, request, fetchOptions_);
    out.lab = transport_.fetch(*lab_, request, fetchOptions_);
  } else {
    out.field = simnet::Transport::badUrl(url);
    out.lab = out.field;
  }
  if (health_ != nullptr)
    health_->of(field_->name).recordOutcome(out.field.outcome, world_->now());
}

UrlTestResult Client::fetchAndClassify(const std::string& url) {
  UrlTestResult result;
  fetchBoth(url, result);
  result.blockPage = classify(result.field);
  result.verdict = compare(result.field, result.lab, result.blockPage);
  return result;
}

UrlTestResult Client::degradedResult(const std::string& url) const {
  UrlTestResult result;
  result.url = url;
  result.provenance = Provenance::kDegraded;
  const std::string reason = "skipped: vantage '" + field_->name +
                             "' quarantined (circuit breaker open)";
  result.field.outcome = simnet::FetchOutcome::kTimeout;
  result.field.error = reason;
  result.lab.outcome = simnet::FetchOutcome::kTimeout;
  result.lab.error = reason;
  result.verdict = Verdict::kError;  // untestable, not evidence of blocking
  return result;
}

UrlTestResult Client::testUrl(const std::string& url) {
  // Health gate comes BEFORE the memo: a quarantined vantage must not serve
  // stale verdicts, and a half-open probe must reach the network.
  bool probe = false;
  if (health_ != nullptr) {
    switch (health_->of(field_->name).decide(world_->now())) {
      case HealthDecision::kQuarantined: return degradedResult(url);
      case HealthDecision::kProbe: probe = true; break;
      case HealthDecision::kProceed: break;
    }
  }

  if (!verdictMemoActive()) return fetchAndClassify(url);

  const MemoEpoch before = currentEpoch();
  if (before != memoEpoch_) {
    memo_.clear();
    memoEpoch_ = before;
  }
  const bool sharedActive = sharedMemoActive();
  if (!probe) {
    if (const auto it = memo_.find(url); it != memo_.end()) {
      ++memoHits_;
      return it->second;
    }
    if (sharedActive) {
      if (auto hit = sharedLookup(url, before)) return *hit;
    }
  }
  UrlTestResult result = fetchAndClassify(url);
  // Insert-guard: memoize only when the fetch itself left the epoch alone.
  // A fetch that advanced the clock (retry backoff) or mutated a database
  // (queue-triggered categorization) would not replay identically. A fetch
  // the interference layer touched is never cached (belt and braces on top
  // of cacheability(): memoSafe_ is re-checked at enable time, but a plan
  // installed later must still not leak deceived rows).
  if (result.field.interference == simnet::InterferenceEffect::kNone &&
      result.lab.interference == simnet::InterferenceEffect::kNone &&
      currentEpoch() == before) {
    memo_.emplace(url, result);
    if (sharedActive) sharedInsert(result, before);
  }
  return result;
}

std::vector<UrlTestResult> Client::testList(std::span<const std::string> urls) {
  std::vector<UrlTestResult> out;
  out.reserve(urls.size());
  for (const auto& url : urls) out.push_back(testUrl(url));
  return out;
}

std::vector<UrlTestResult> Client::testListBatched(
    std::span<const std::string> urls, std::size_t threadLimit) {
  std::vector<UrlTestResult> out(urls.size());
  const bool memoActive = verdictMemoActive();

  // Phase 1 — fetches, strictly in list order. Fetching mutates the world
  // (RNG draws, clock advances, vendor queues), so this phase must replay
  // the exact serial program order regardless of threadLimit.
  std::vector<std::size_t> fetched;  // indices that still need classification
  std::vector<MemoEpoch> before, after;
  fetched.reserve(urls.size());
  if (memoActive) {
    before.reserve(urls.size());
    after.reserve(urls.size());
  }
  for (std::size_t i = 0; i < urls.size(); ++i) {
    // Health gate first (same contract as testUrl): quarantine skips the
    // URL entirely, a half-open probe bypasses the memo lookup.
    bool probe = false;
    if (health_ != nullptr) {
      switch (health_->of(field_->name).decide(world_->now())) {
        case HealthDecision::kQuarantined:
          out[i] = degradedResult(urls[i]);
          continue;
        case HealthDecision::kProbe: probe = true; break;
        case HealthDecision::kProceed: break;
      }
    }
    if (memoActive) {
      const MemoEpoch epoch = currentEpoch();
      if (epoch != memoEpoch_) {
        memo_.clear();
        memoEpoch_ = epoch;
      }
      if (!probe) {
        if (const auto it = memo_.find(urls[i]); it != memo_.end()) {
          ++memoHits_;
          out[i] = it->second;
          continue;
        }
        if (sharedMemoActive()) {
          if (auto hit = sharedLookup(urls[i], epoch)) {
            out[i] = *hit;
            continue;
          }
        }
      }
      before.push_back(epoch);
    }
    fetchBoth(urls[i], out[i]);
    fetched.push_back(i);
    if (memoActive) after.push_back(currentEpoch());
  }

  // Phase 2 — classification + comparison: pure per entry, fanned out with
  // slot-per-index writes, so the gathered output is byte-identical to the
  // serial loop at any thread count.
  util::parallelFor(
      fetched.size(),
      [&](std::size_t k) {
        UrlTestResult& result = out[fetched[k]];
        result.blockPage = classify(result.field);
        result.verdict = compare(result.field, result.lab, result.blockPage);
      },
      threadLimit);

  // Phase 3 — memo inserts, serial. An entry is replayable only if nothing
  // (its own fetch included) moved the epoch between its fetch and now.
  if (memoActive) {
    const MemoEpoch finalEpoch = currentEpoch();
    if (finalEpoch != memoEpoch_) {
      memo_.clear();
      memoEpoch_ = finalEpoch;
    }
    const bool sharedActive = sharedMemoActive();
    for (std::size_t k = 0; k < fetched.size(); ++k) {
      const UrlTestResult& row = out[fetched[k]];
      if (row.field.interference != simnet::InterferenceEffect::kNone ||
          row.lab.interference != simnet::InterferenceEffect::kNone)
        continue;  // a deceived observation is never cached
      if (before[k] == finalEpoch && after[k] == finalEpoch) {
        memo_.emplace(row.url, row);
        if (sharedActive) sharedInsert(row, finalEpoch);
      }
    }
  }
  return out;
}

}  // namespace urlf::measure
