#ifndef URLF_MEASURE_PATTERN_LIBRARY_H
#define URLF_MEASURE_PATTERN_LIBRARY_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "measure/blockpage.h"
#include "util/icase_regex.h"

namespace urlf::measure {

/// A block-page pattern set prepared for repeated classification.
///
/// Every pattern is parsed once, at construction, into a util::IcaseRegex:
/// a literal-anchored matcher for the regex subset vendor patterns use.
/// Classifying a trace folds it to lowercase once; each pattern then
/// rejects it with one memmem per branch unless the branch's required
/// literal occurs, and only then verifies candidate starts with a bounded
/// backtracking check. A benign trace never reaches the verifier.
///
/// Classification is byte-identical to the reference classifier
/// (classifyBlockPageReference): patterns are tried in order, the first
/// match wins, and the evidence is the leftmost match's text, as the
/// ECMAScript engine reports it, from the original (unfolded) trace.
class CompiledPatternLibrary {
 public:
  /// Throws std::regex_error when a pattern is malformed or outside the
  /// util::IcaseRegex subset.
  explicit CompiledPatternLibrary(std::vector<BlockPagePattern> patterns);

  /// The shared library over builtinBlockPagePatterns().
  static const CompiledPatternLibrary& builtin();

  /// Classify a fetch result (same guard and trace flattening as the
  /// reference path).
  [[nodiscard]] std::optional<BlockPageMatch> classify(
      const simnet::FetchResult& result) const;

  /// Classify an already-flattened trace.
  [[nodiscard]] std::optional<BlockPageMatch> classifyTrace(
      const std::string& trace) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// The source patterns, in match order.
  [[nodiscard]] std::vector<BlockPagePattern> patterns() const;

 private:
  struct Entry {
    BlockPagePattern source;
    util::IcaseRegex regex;
  };
  std::vector<Entry> entries_;
};

}  // namespace urlf::measure

#endif  // URLF_MEASURE_PATTERN_LIBRARY_H
