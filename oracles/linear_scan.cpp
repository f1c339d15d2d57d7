#include "oracles/linear_scan.h"

#include <set>
#include <string_view>

#include "scan/postings.h"
#include "util/strings.h"

namespace urlf::oracles {

LinearBannerScan::LinearBannerScan(std::vector<scan::BannerRecord> records)
    : records_(std::move(records)) {
  lowered_.reserve(records_.size());
  for (const auto& record : records_)
    lowered_.push_back(util::toLower(record.searchableText()));
}

std::vector<std::uint32_t> LinearBannerScan::search(
    const scan::Query& query) const {
  const std::string loweredKeyword = util::toLower(query.keyword);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (query.countryAlpha2 &&
        !util::iequals(records_[i].countryAlpha2, *query.countryAlpha2))
      continue;
    if (lowered_[i].find(loweredKeyword) == std::string::npos) continue;
    out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::vector<std::uint32_t> LinearBannerScan::searchAll(
    const std::vector<scan::Query>& queries) const {
  std::vector<std::uint32_t> out;
  std::set<std::uint64_t> seen;
  for (const auto& query : queries) {
    for (const auto i : search(query)) {
      const auto& record = records_[i];
      const std::uint64_t key =
          (std::uint64_t{record.ip.value()} << 16) | record.port;
      if (seen.insert(key).second) out.push_back(i);
    }
  }
  return out;
}

std::size_t LinearBannerScan::vocabularySize() const {
  std::set<std::string_view> vocabulary;
  std::vector<std::string_view> tokens;
  for (const auto& text : lowered_) {
    tokens.clear();
    scan::tokenizeAlnum(text, tokens);
    vocabulary.insert(tokens.begin(), tokens.end());
  }
  return vocabulary.size();
}

}  // namespace urlf::oracles
