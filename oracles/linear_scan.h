#ifndef URLF_ORACLES_LINEAR_SCAN_H
#define URLF_ORACLES_LINEAR_SCAN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scan/banner_index.h"

namespace urlf::oracles {

/// The linear banner scan: the obviously-correct answer to a Shodan-style
/// query. Every query walks every record's lowered searchable text in
/// record order, with the country facet compared case-insensitively. The
/// behavioural reference for scan::ShardedBannerIndex — a record's index
/// here is its doc id there when the index was built from the same records
/// in the same order. Lives in the test-only oracles library.
class LinearBannerScan {
 public:
  explicit LinearBannerScan(std::vector<scan::BannerRecord> records);

  /// Indices of the records matching the query, ascending.
  [[nodiscard]] std::vector<std::uint32_t> search(
      const scan::Query& query) const;

  /// Union of results across queries, de-duplicated by (ip, port), ordered
  /// by first match (query order, then record order).
  [[nodiscard]] std::vector<std::uint32_t> searchAll(
      const std::vector<scan::Query>& queries) const;

  /// Distinct lowercased alphanumeric tokens over all records.
  [[nodiscard]] std::size_t vocabularySize() const;

  [[nodiscard]] const std::vector<scan::BannerRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  std::vector<scan::BannerRecord> records_;
  std::vector<std::string> lowered_;  ///< lowered searchable text per record
};

}  // namespace urlf::oracles

#endif  // URLF_ORACLES_LINEAR_SCAN_H
