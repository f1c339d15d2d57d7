#ifndef URLF_FILTERS_CATEGORY_DB_H
#define URLF_FILTERS_CATEGORY_DB_H

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "filters/category.h"
#include "filters/category_set.h"
#include "net/url.h"
#include "util/clock.h"
#include "util/flat_map.h"

namespace urlf::filters {

/// A vendor's database of categorized URLs.
///
/// Entries exist at two granularities, reflecting real products: whole
/// hostnames (SmartFilter blocked even the benign image on a categorized
/// host, §4.6) and exact URLs. Lookup checks the exact URL first, then the
/// hostname, then the registrable domain, and unions the results.
///
/// Each entry records when it was added, so deployments that receive
/// updates on a delay (§2.1's "subscription/update component") can query
/// the database "as of" an earlier time.
///
/// Internals are open-addressing flat maps (util::FlatStringMap) over
/// interned (lowercased-at-insert) keys, with each entry a small
/// category-sorted vector. The *Into/As-of fast paths below are
/// allocation-free after warm-up (thread-local key scratch + caller-reused
/// CategorySet) and are what Deployment::onRequest runs per request; the
/// std::set-returning methods are thin adapters kept for existing callers.
/// oracles::ReferenceCategoryStore, in the test-only oracles library,
/// preserves the original tree-based implementation for equivalence testing.
class CategoryDatabase {
 public:
  CategoryDatabase() = default;

  /// Categorize a whole hostname (and all URLs on it). `addedAt` defaults
  /// to the simulation epoch, i.e. visible at any query time.
  void addHost(std::string_view host, CategoryId category,
               util::SimTime addedAt = util::SimTime{});
  /// Categorize one exact URL (canonical string form).
  void addUrl(const net::Url& url, CategoryId category,
              util::SimTime addedAt = util::SimTime{});

  void removeHost(std::string_view host);

  /// All categories that apply to this URL (ignoring entry times).
  [[nodiscard]] std::set<CategoryId> categorize(const net::Url& url) const;

  /// Only the categories whose entries existed at or before `cutoff` — the
  /// view of a deployment whose last update sync was at `cutoff`.
  [[nodiscard]] std::set<CategoryId> categorizeAsOf(const net::Url& url,
                                                    util::SimTime cutoff) const;

  /// Fast path: union this URL's categories (as of `cutoff`) into `out`
  /// without allocating. Does NOT clear `out` — callers union several
  /// sources (custom DB + delayed master view) into one scratch set.
  void categorizeAsOfInto(const net::Url& url, util::SimTime cutoff,
                          CategorySet& out) const;
  /// Same, ignoring entry times.
  void categorizeInto(const net::Url& url, CategorySet& out) const;

  /// Categories recorded for the hostname itself (no URL/domain fallback).
  [[nodiscard]] std::set<CategoryId> hostCategories(std::string_view host) const;

  /// Allocation-free membership test: true when any probe (URL, host,
  /// registrable domain) has an entry visible at `cutoff`.
  [[nodiscard]] bool isCategorizedAsOf(const net::Url& url,
                                       util::SimTime cutoff) const;
  [[nodiscard]] bool isCategorized(const net::Url& url) const;

  /// Number of categorized hosts + URLs (vendors advertise this figure —
  /// "Netsweeper by the numbers" [19]).
  [[nodiscard]] std::size_t entryCount() const {
    return byHost_.size() + byUrl_.size();
  }

  /// Count of mutations (addHost/addUrl/removeHost) since construction.
  /// Monotone; callers memoizing lookup results compare this to detect
  /// staleness (see Deployment::stateEpoch).
  [[nodiscard]] std::uint64_t mutationCount() const { return mutationCount_; }

 private:
  /// One category assignment with the earliest time it appeared; entries
  /// are kept sorted by category id.
  struct TimedCategory {
    CategoryId category = 0;
    util::SimTime addedAt;
  };
  using Entry = std::vector<TimedCategory>;
  using FlatMap = util::FlatStringMap<Entry>;

  static void addTo(Entry& entry, CategoryId category, util::SimTime addedAt);
  static void collect(const Entry& entry, util::SimTime cutoff,
                      CategorySet& out);
  static bool anyVisible(const Entry& entry, util::SimTime cutoff);

  /// The three probe keys for a URL, in union order. `urlKey` is only built
  /// (into the thread-local scratch) when the URL map is non-empty.
  template <typename Fn>
  void forEachProbe(const net::Url& url, Fn&& fn) const;

  FlatMap byHost_;
  FlatMap byUrl_;
  std::uint64_t mutationCount_ = 0;
};

}  // namespace urlf::filters

#endif  // URLF_FILTERS_CATEGORY_DB_H
