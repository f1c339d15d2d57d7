#ifndef URLF_ORACLES_REFERENCE_CATEGORY_STORE_H
#define URLF_ORACLES_REFERENCE_CATEGORY_STORE_H

#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "filters/category.h"
#include "net/url.h"
#include "util/clock.h"
#include "util/strings.h"

namespace urlf::oracles {

/// The original node-based CategoryDatabase implementation, preserved
/// verbatim as the behavioral reference for the flat store.
///
/// CategoryDatabase replaced its std::map/std::set internals with hash-based
/// flat maps; this class keeps the obviously-correct tree-based version so
/// property tests can check flat ≡ reference on randomized worlds and the
/// categorize benchmark can measure the speedup against a live baseline.
/// Lives in the test-only oracles library: no production path uses it.
class ReferenceCategoryStore {
 public:
  ReferenceCategoryStore() = default;

  void addHost(std::string_view host, filters::CategoryId category,
               util::SimTime addedAt = util::SimTime{}) {
    auto& entry = byHost_[util::toLower(host)];
    const auto it = entry.find(category);
    // Keep the earliest time an entry appeared.
    if (it == entry.end() || addedAt < it->second) entry[category] = addedAt;
  }

  void addUrl(const net::Url& url, filters::CategoryId category,
              util::SimTime addedAt = util::SimTime{}) {
    auto& entry = byUrl_[url.toString()];
    const auto it = entry.find(category);
    if (it == entry.end() || addedAt < it->second) entry[category] = addedAt;
  }

  void removeHost(std::string_view host) {
    byHost_.erase(util::toLower(host));
  }

  [[nodiscard]] std::set<filters::CategoryId> categorize(const net::Url& url) const {
    return categorizeAsOf(url, kNoCutoff);
  }

  [[nodiscard]] std::set<filters::CategoryId> categorizeAsOf(
      const net::Url& url, util::SimTime cutoff) const {
    std::set<filters::CategoryId> out;

    if (const auto it = byUrl_.find(url.toString()); it != byUrl_.end()) {
      const auto categories = categoriesOf(it->second, cutoff);
      out.insert(categories.begin(), categories.end());
    }

    if (const auto it = byHost_.find(url.host()); it != byHost_.end()) {
      const auto categories = categoriesOf(it->second, cutoff);
      out.insert(categories.begin(), categories.end());
    }

    const std::string domain = net::registrableDomain(url.host());
    if (domain != url.host()) {
      if (const auto it = byHost_.find(domain); it != byHost_.end()) {
        const auto categories = categoriesOf(it->second, cutoff);
        out.insert(categories.begin(), categories.end());
      }
    }
    return out;
  }

  [[nodiscard]] std::set<filters::CategoryId> hostCategories(
      std::string_view host) const {
    const auto it = byHost_.find(util::toLower(host));
    if (it == byHost_.end()) return {};
    return categoriesOf(it->second, kNoCutoff);
  }

  [[nodiscard]] bool isCategorized(const net::Url& url) const {
    return !categorize(url).empty();
  }

  [[nodiscard]] std::size_t entryCount() const {
    return byHost_.size() + byUrl_.size();
  }

 private:
  using Entry = std::map<filters::CategoryId, util::SimTime>;

  static constexpr util::SimTime kNoCutoff{
      std::numeric_limits<std::int64_t>::max()};

  static std::set<filters::CategoryId> categoriesOf(const Entry& entry,
                                           util::SimTime cutoff) {
    std::set<filters::CategoryId> out;
    for (const auto& [category, addedAt] : entry)
      if (addedAt <= cutoff) out.insert(category);
    return out;
  }

  std::map<std::string, Entry, std::less<>> byHost_;
  std::map<std::string, Entry, std::less<>> byUrl_;
};

}  // namespace urlf::oracles

#endif  // URLF_ORACLES_REFERENCE_CATEGORY_STORE_H
