#include "measure/blockpage.h"

#include <regex>

#include "http/wire.h"
#include "measure/pattern_library.h"

namespace urlf::measure {

using filters::ProductKind;

const std::vector<BlockPagePattern>& builtinBlockPagePatterns() {
  static const std::vector<BlockPagePattern> kPatterns{
      // McAfee SmartFilter / McAfee Web Gateway.
      {ProductKind::kSmartFilter, "smartfilter-via-header",
       R"(Via:.*McAfee Web Gateway)"},
      {ProductKind::kSmartFilter, "smartfilter-title",
       R"(<title>[^<]*McAfee Web Gateway[^<]*</title>)"},

      // Blue Coat: the cfauth.com bounce with the cfru parameter.
      {ProductKind::kBlueCoat, "bluecoat-cfauth-redirect",
       R"(Location:\s*http://www\.cfauth\.com/\?cfru=)"},
      {ProductKind::kBlueCoat, "bluecoat-blockpage-title",
       R"(<title>[^<]*Blue Coat[^<]*</title>)"},

      // Netsweeper: deny page under webadmin on port 8080.
      {ProductKind::kNetsweeper, "netsweeper-deny-redirect",
       R"(Location:\s*http://[0-9.]+:8080/webadmin/deny)"},
      {ProductKind::kNetsweeper, "netsweeper-branding",
       R"((Netsweeper WebAdmin|X-Filter:\s*Netsweeper))"},

      // Websense: blockpage.cgi on port 15871 with ws-session.
      {ProductKind::kWebsense, "websense-blockpage-redirect",
       R"(Location:\s*http://[0-9.]+:15871/cgi-bin/blockpage\.cgi\?ws-session=)"},
      {ProductKind::kWebsense, "websense-title",
       R"(<title>[^<]*Websense[^<]*</title>)"},
  };
  return kPatterns;
}

std::string fetchTrace(const simnet::FetchResult& result) {
  std::string trace;
  fetchTraceInto(result, trace);
  return trace;
}

void fetchTraceInto(const simnet::FetchResult& result, std::string& out) {
  out.clear();
  std::size_t bound = 0;
  for (const auto& hop : result.redirectChain)
    bound += http::serializedSizeBound(hop);
  if (result.response) bound += http::serializedSizeBound(*result.response);
  out.reserve(bound);
  for (const auto& hop : result.redirectChain) http::serializeTo(hop, out);
  if (result.response) http::serializeTo(*result.response, out);
}

std::optional<BlockPageMatch> classifyBlockPage(
    const simnet::FetchResult& result,
    const std::vector<BlockPagePattern>& patterns) {
  return CompiledPatternLibrary(patterns).classify(result);
}

std::optional<BlockPageMatch> classifyBlockPageReference(
    const simnet::FetchResult& result,
    const std::vector<BlockPagePattern>& patterns) {
  if (!result.ok() && result.redirectChain.empty()) return std::nullopt;
  const std::string trace = fetchTrace(result);
  for (const auto& pattern : patterns) {
    const std::regex re(pattern.regex, std::regex::ECMAScript |
                                           std::regex::icase |
                                           std::regex::optimize);
    std::smatch match;
    if (std::regex_search(trace, match, re)) {
      return BlockPageMatch{pattern.product, pattern.name, match.str(0)};
    }
  }
  return std::nullopt;
}

std::optional<BlockPageMatch> classifyBlockPage(
    const simnet::FetchResult& result) {
  return CompiledPatternLibrary::builtin().classify(result);
}

}  // namespace urlf::measure
