#include "measure/pattern_library.h"

#include "util/strings.h"

namespace urlf::measure {

CompiledPatternLibrary::CompiledPatternLibrary(
    std::vector<BlockPagePattern> patterns) {
  entries_.reserve(patterns.size());
  for (auto& pattern : patterns) {
    util::IcaseRegex regex(pattern.regex);
    entries_.push_back(Entry{std::move(pattern), std::move(regex)});
  }
}

const CompiledPatternLibrary& CompiledPatternLibrary::builtin() {
  static const CompiledPatternLibrary kLibrary(builtinBlockPagePatterns());
  return kLibrary;
}

std::optional<BlockPageMatch> CompiledPatternLibrary::classify(
    const simnet::FetchResult& result) const {
  if (!result.ok() && result.redirectChain.empty()) return std::nullopt;
  // Reuse one trace buffer per thread: classification is pure, so batched
  // runs classify on worker threads and each keeps its own scratch.
  thread_local std::string trace;
  fetchTraceInto(result, trace);
  return classifyTrace(trace);
}

std::optional<BlockPageMatch> CompiledPatternLibrary::classifyTrace(
    const std::string& trace) const {
  // One fold per trace, shared by every pattern's literal prefilter.
  thread_local std::string folded;
  util::toLowerInto(trace, folded);
  for (const auto& entry : entries_) {
    if (const auto match = entry.regex.search(trace, folded)) {
      return BlockPageMatch{entry.source.product, entry.source.name,
                            trace.substr(match->position, match->length)};
    }
  }
  return std::nullopt;
}

std::vector<BlockPagePattern> CompiledPatternLibrary::patterns() const {
  std::vector<BlockPagePattern> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.source);
  return out;
}

}  // namespace urlf::measure
