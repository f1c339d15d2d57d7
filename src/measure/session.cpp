#include "measure/session.h"

#include "http/wire.h"
#include "measure/pattern_library.h"

namespace urlf::measure {

using report::Json;

namespace {

std::string_view outcomeName(simnet::FetchOutcome outcome) {
  return simnet::toString(outcome);
}

std::optional<simnet::FetchOutcome> outcomeFromName(std::string_view name) {
  using FO = simnet::FetchOutcome;
  for (const auto outcome : {FO::kOk, FO::kDnsFailure, FO::kConnectFailure,
                             FO::kTimeout, FO::kReset, FO::kBadUrl}) {
    if (name == simnet::toString(outcome)) return outcome;
  }
  return std::nullopt;
}

Json fetchToJson(const simnet::FetchResult& fetch) {
  Json out = Json::object();
  out["outcome"] = Json::string(outcomeName(fetch.outcome));
  if (!fetch.error.empty()) out["error"] = Json::string(fetch.error);
  if (fetch.attempts > 1)
    out["attempts"] = Json::number(std::int64_t{fetch.attempts});
  if (fetch.injectedFault != simnet::FaultKind::kNone)
    out["injected_fault"] = Json::string(simnet::toString(fetch.injectedFault));
  // The failure signature and cause ride along whenever they are
  // non-default. Before the cause existed, a re-imported session could only
  // tell injected faults apart via `injected_fault` — a middlebox-caused
  // timeout and an injected one round-tripped identically and resumed
  // campaigns could misattribute them.
  if (fetch.signature != simnet::FailureSignature::kNone)
    out["signature"] = Json::string(simnet::toString(fetch.signature));
  if (fetch.cause != simnet::FailureCause::kNone)
    out["cause"] = Json::string(simnet::toString(fetch.cause));
  if (fetch.interference != simnet::InterferenceEffect::kNone)
    out["interference"] = Json::string(simnet::toString(fetch.interference));
  out["response"] = fetch.response
                        ? Json::string(http::serialize(*fetch.response))
                        : Json::null();
  Json chain = Json::array();
  for (const auto& hop : fetch.redirectChain)
    chain.push(Json::string(http::serialize(hop)));
  out["redirect_chain"] = std::move(chain);
  return out;
}

std::optional<simnet::FetchResult> fetchFromJson(const Json& json) {
  if (!json.isObject()) return std::nullopt;
  const auto* outcome = json.find("outcome");
  if (outcome == nullptr || !outcome->asString()) return std::nullopt;
  const auto parsedOutcome = outcomeFromName(*outcome->asString());
  if (!parsedOutcome) return std::nullopt;

  simnet::FetchResult fetch;
  fetch.outcome = *parsedOutcome;
  if (const auto* error = json.find("error"); error && error->asString())
    fetch.error = *error->asString();
  if (!json.readCount("attempts", fetch.attempts)) return std::nullopt;
  if (const auto* fault = json.find("injected_fault");
      fault && fault->asString()) {
    using FK = simnet::FaultKind;
    for (const auto kind : {FK::kDnsFlap, FK::kConnectFail, FK::kLoss,
                            FK::kTimeout, FK::kOutage}) {
      if (*fault->asString() == simnet::toString(kind))
        fetch.injectedFault = kind;
    }
  }
  if (const auto* signature = json.find("signature");
      signature && signature->asString()) {
    using FS = simnet::FailureSignature;
    for (const auto kind :
         {FS::kEmptyDns, FS::kRefused, FS::kRstBeforeBanner,
          FS::kRstAfterRequest, FS::kTimeout, FS::kSlowDrip}) {
      if (*signature->asString() == simnet::toString(kind))
        fetch.signature = kind;
    }
  }
  if (const auto* cause = json.find("cause"); cause && cause->asString()) {
    using FC = simnet::FailureCause;
    for (const auto kind :
         {FC::kOrganic, FC::kFault, FC::kOutage, FC::kMiddlebox,
          FC::kPacketFilter, FC::kInterference}) {
      if (*cause->asString() == simnet::toString(kind)) fetch.cause = kind;
    }
  }
  if (const auto* interference = json.find("interference");
      interference && interference->asString()) {
    using IE = simnet::InterferenceEffect;
    for (const auto effect : {IE::kHidden, IE::kLockout, IE::kTarpit,
                              IE::kFlakyOpen, IE::kMimicry}) {
      if (*interference->asString() == simnet::toString(effect))
        fetch.interference = effect;
    }
  }

  if (const auto* response = json.find("response");
      response && response->asString()) {
    auto parsed = http::parseResponse(*response->asString());
    if (!parsed) return std::nullopt;
    fetch.response = std::move(*parsed);
  }
  if (const auto* chain = json.find("redirect_chain")) {
    const auto* array = chain->asArray();
    if (array == nullptr) return std::nullopt;
    for (const auto& hop : *array) {
      if (!hop.asString()) return std::nullopt;
      auto parsed = http::parseResponse(*hop.asString());
      if (!parsed) return std::nullopt;
      fetch.redirectChain.push_back(std::move(*parsed));
    }
  }
  return fetch;
}

}  // namespace

Json toJson(const UrlTestResult& result) {
  Json out = Json::object();
  out["url"] = Json::string(result.url);
  out["verdict"] = Json::string(toString(result.verdict));
  if (result.provenance != Provenance::kConfirmed)
    out["provenance"] = Json::string(toString(result.provenance));
  out["field"] = fetchToJson(result.field);
  out["lab"] = fetchToJson(result.lab);
  if (result.blockPage) {
    Json match = Json::object();
    match["product"] =
        Json::string(filters::toString(result.blockPage->product));
    match["pattern"] = Json::string(result.blockPage->patternName);
    match["evidence"] = Json::string(result.blockPage->evidence);
    out["block_page"] = std::move(match);
  }
  return out;
}

std::optional<UrlTestResult> urlTestResultFromJson(const Json& json) {
  if (!json.isObject()) return std::nullopt;
  const auto* url = json.find("url");
  const auto* field = json.find("field");
  const auto* lab = json.find("lab");
  if (url == nullptr || !url->asString() || field == nullptr || lab == nullptr)
    return std::nullopt;

  UrlTestResult result;
  result.url = *url->asString();
  auto parsedField = fetchFromJson(*field);
  auto parsedLab = fetchFromJson(*lab);
  if (!parsedField || !parsedLab) return std::nullopt;
  result.field = std::move(*parsedField);
  result.lab = std::move(*parsedLab);
  if (const auto* provenance = json.find("provenance");
      provenance && provenance->asString() &&
      *provenance->asString() == toString(Provenance::kDegraded))
    result.provenance = Provenance::kDegraded;

  // Verdict and block page are derived data; recompute them so an imported
  // session is internally consistent even if the library changed.
  result.blockPage = classifyBlockPage(result.field);
  result.verdict = Client::compare(result.field, result.lab, result.blockPage);
  return result;
}

std::string exportSession(const std::vector<UrlTestResult>& results,
                          int indent) {
  Json array = Json::array();
  for (const auto& result : results) array.push(toJson(result));
  return array.dump(indent);
}

std::optional<std::vector<UrlTestResult>> importSession(std::string_view text) {
  const auto json = Json::parse(text);
  if (!json) return std::nullopt;
  const auto* array = json->asArray();
  if (array == nullptr) return std::nullopt;

  std::vector<UrlTestResult> out;
  out.reserve(array->size());
  for (const auto& item : *array) {
    auto result = urlTestResultFromJson(item);
    if (!result) return std::nullopt;
    out.push_back(std::move(*result));
  }
  return out;
}

std::vector<UrlTestResult> reclassify(
    std::vector<UrlTestResult> results,
    const std::vector<BlockPagePattern>& patterns) {
  const CompiledPatternLibrary library(patterns);
  for (auto& result : results) {
    result.blockPage = library.classify(result.field);
    result.verdict =
        Client::compare(result.field, result.lab, result.blockPage);
  }
  return results;
}

}  // namespace urlf::measure
