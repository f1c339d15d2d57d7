#ifndef URLF_MEASURE_SESSION_H
#define URLF_MEASURE_SESSION_H

#include <optional>
#include <string>
#include <vector>

#include "measure/client.h"
#include "report/json.h"

namespace urlf::measure {

/// JSON serialization of measurement sessions with full wire traces.
///
/// The paper's §5 workflow is collect-first, analyze-later: "Manual analysis
/// identified regular expressions corresponding to the vendors' block pages
/// and automated analysis identified all URLs which matched a given block
/// page regular expression." Persisting complete field/lab exchanges makes
/// that second pass (and later re-analysis with better patterns) possible.
[[nodiscard]] report::Json toJson(const UrlTestResult& result);
[[nodiscard]] std::optional<UrlTestResult> urlTestResultFromJson(
    const report::Json& json);

[[nodiscard]] std::string exportSession(
    const std::vector<UrlTestResult>& results, int indent = 0);
[[nodiscard]] std::optional<std::vector<UrlTestResult>> importSession(
    std::string_view text);

/// Re-run block-page classification and the §4.1 verdict rule over recorded
/// results with a (possibly new) pattern library — the "automated analysis"
/// pass. The patterns are parsed once per call, into one
/// CompiledPatternLibrary.
[[nodiscard]] std::vector<UrlTestResult> reclassify(
    std::vector<UrlTestResult> results,
    const std::vector<BlockPagePattern>& patterns);

}  // namespace urlf::measure

#endif  // URLF_MEASURE_SESSION_H
