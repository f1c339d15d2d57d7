#ifndef URLF_UTIL_ICASE_REGEX_H
#define URLF_UTIL_ICASE_REGEX_H

#include <bitset>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace urlf::util {

/// A case-insensitive regular expression over the small ECMAScript subset
/// that block-page and fingerprint patterns are written in, searched by
/// literal anchoring instead of a general regex engine.
///
/// Accepted forms:
///   - literal characters, and `\` followed by any punctuation character;
///   - `.` (any byte but `\r` and `\n`), `\d`, `\s`, `\w`;
///   - `[...]` and `[^...]` holding characters, escaped punctuation, ranges
///     and `\d`/`\s`/`\w`, with `-` literal only first or last;
///   - greedy `*`, `+` and `?` after any of the above;
///   - top-level `|`, optionally wrapped in one group: `(a|b)`.
/// Anything else (anchors, `{n,m}`, lazy or stacked quantifiers, nested or
/// partial groups, back-references, other letter escapes) throws
/// std::regex_error at construction.
///
/// Search: every branch keeps the longest case-folded literal that all its
/// matches contain, plus the literal it starts with, if any. One memmem per
/// branch over the case-folded subject rejects the common case; otherwise
/// candidate starts (occurrences of the leading literal, or bytes the first
/// atom accepts, up to the last occurrence of the required literal) are
/// verified with a backtracking check in ECMAScript order.
///
/// Results equal the standard ECMAScript engine's with icase under the "C"
/// locale: the leftmost start wins, branches are tried in order at each
/// start, quantifiers are greedy, and the match is the same byte range.
class IcaseRegex {
 public:
  /// A match: `length` bytes of the subject starting at `position`.
  struct Match {
    std::size_t position = 0;
    std::size_t length = 0;
  };

  /// Parse `pattern`. Throws std::regex_error when it is malformed or uses
  /// a form outside the subset above.
  explicit IcaseRegex(std::string_view pattern);

  /// The leftmost match in `text`, or nullopt.
  [[nodiscard]] std::optional<Match> search(std::string_view text) const;

  /// Same, for callers that search one subject with many patterns: `folded`
  /// must be `text` ASCII-lowercased (util::toLowerInto), so the subject is
  /// folded once rather than once per pattern.
  [[nodiscard]] std::optional<Match> search(std::string_view text,
                                            std::string_view folded) const;

 private:
  /// One single-byte atom with its quantifier.
  struct Item {
    std::bitset<256> accepts;
    int literal = -1;        ///< case-folded byte when the atom is a literal
    bool optional = false;   ///< `?` or `*`
    bool repeats = false;    ///< `+` or `*`
  };

  struct Branch {
    std::vector<Item> items;
    std::string lead;       ///< folded literal every match starts with
    std::string required;   ///< longest folded literal every match contains
    std::size_t minBefore = 0;  ///< bytes every match spends before `required`
  };

  /// End of the match of the atoms [item, end) from `pos`, or nullopt.
  [[nodiscard]] static std::optional<std::size_t> matchAt(
      const Item* item, const Item* end, std::string_view text,
      std::size_t pos);

  std::vector<Branch> branches_;
};

}  // namespace urlf::util

#endif  // URLF_UTIL_ICASE_REGEX_H
