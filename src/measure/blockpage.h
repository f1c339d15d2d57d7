#ifndef URLF_MEASURE_BLOCKPAGE_H
#define URLF_MEASURE_BLOCKPAGE_H

#include <optional>
#include <string>
#include <vector>

#include "filters/category.h"
#include "simnet/transport.h"

namespace urlf::measure {

/// A vendor block-page recognizer: a named regular expression applied to the
/// textual trace of a fetch (status line, headers, redirect Locations, body).
/// "Manual analysis identified regular expressions corresponding to the
/// vendors' block pages" (§5).
struct BlockPagePattern {
  filters::ProductKind product = filters::ProductKind::kBlueCoat;
  std::string name;    ///< e.g. "smartfilter-via-header"
  std::string regex;   ///< case-insensitive regex, util::IcaseRegex subset
};

/// The built-in pattern library for the four products.
[[nodiscard]] const std::vector<BlockPagePattern>& builtinBlockPagePatterns();

/// A positive block-page classification.
struct BlockPageMatch {
  filters::ProductKind product = filters::ProductKind::kBlueCoat;
  std::string patternName;
  std::string evidence;  ///< the matched text fragment
};

/// Flatten a fetch result (redirect chain + final response) into the text
/// the patterns are applied to. Reserves the exact output size up front.
[[nodiscard]] std::string fetchTrace(const simnet::FetchResult& result);

/// Same, replacing the contents of `out` — lets hot paths reuse one buffer
/// across classifications instead of allocating a trace per call.
void fetchTraceInto(const simnet::FetchResult& result, std::string& out);

/// How classification evaluates its pattern library.
enum class ClassifyMode {
  kCompiled,   ///< literal-anchored util::IcaseRegex matchers (default)
  kReference,  ///< the standard <regex> engine, built per call
};

/// Classify a fetch as a vendor block page, if any pattern matches. Uses the
/// shared CompiledPatternLibrary over builtinBlockPagePatterns(), whose
/// literal-anchored matchers reject a benign trace with one case fold and a
/// memmem per pattern branch.
[[nodiscard]] std::optional<BlockPageMatch> classifyBlockPage(
    const simnet::FetchResult& result);

/// Same, with a caller-supplied pattern library (mined patterns included),
/// parsed into one CompiledPatternLibrary for this call. Throws
/// std::regex_error when a pattern is outside the util::IcaseRegex subset.
[[nodiscard]] std::optional<BlockPageMatch> classifyBlockPage(
    const simnet::FetchResult& result,
    const std::vector<BlockPagePattern>& patterns);

/// Reference classifier: builds every pattern with the standard <regex>
/// engine (ECMAScript, icase) on each call and runs it unconditionally. The
/// test oracle the compiled library must equal byte for byte; the campaign's
/// kReference mode and the benchmarks replay through it too.
[[nodiscard]] std::optional<BlockPageMatch> classifyBlockPageReference(
    const simnet::FetchResult& result,
    const std::vector<BlockPagePattern>& patterns);

}  // namespace urlf::measure

#endif  // URLF_MEASURE_BLOCKPAGE_H
