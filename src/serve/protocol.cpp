#include "serve/protocol.h"

#include <cstdint>
#include <optional>
#include <string>

#include "http/status.h"
#include "scenarios/campaign.h"

namespace urlf::serve {

using report::Json;

util::Expected<SessionRequest> SessionRequest::parse(const Json& body) {
  using Result = util::Expected<SessionRequest>;
  if (!body.isObject()) return Result::failure("session body is not an object");

  SessionRequest request;
  const auto* kind = body.find("kind");
  if (kind == nullptr || !kind->asString())
    return Result::failure("session body has no kind");
  if (*kind->asString() == "campaign")
    request.kind = Kind::kCampaign;
  else if (*kind->asString() == "query")
    request.kind = Kind::kQuery;
  else if (*kind->asString() == "hold")
    request.kind = Kind::kHold;
  else
    return Result::failure("unknown session kind '" + *kind->asString() + "'");

  if (const auto* v = body.find("snapshot"); v && v->asString())
    request.snapshot = *v->asString();

  if (const auto* v = body.find("classify_threads"); v && v->asNumber()) {
    const auto threads =
        report::boundedInteger(*v->asNumber(), 0,
                               std::int64_t{kMaxClassifyThreads});
    if (!threads)
      return Result::failure("classify_threads must be an integer in [0, " +
                             std::to_string(kMaxClassifyThreads) + "]");
    request.classifyThreads = static_cast<std::size_t>(*threads);
  }
  if (const auto* v = body.find("journal"); v && v->asString())
    request.journalPath = *v->asString();
  if (const auto* v = body.find("resume"); v && v->asBool())
    request.resume = *v->asBool();
  if (const auto* v = body.find("crash_after"); v && v->asNumber()) {
    const auto appends =
        report::boundedInteger(*v->asNumber(), 0, kMaxCrashAfter);
    if (!appends)
      return Result::failure("crash_after must be an integer in [0, " +
                             std::to_string(kMaxCrashAfter) + "]");
    request.crashAfter = static_cast<int>(*appends);
  }

  if (const auto* v = body.find("vantage"); v && v->asString())
    request.fieldVantage = *v->asString();
  if (const auto* v = body.find("lab"); v && v->asString())
    request.labVantage = *v->asString();
  if (const auto* v = body.find("date"); v && v->asString()) {
    request.date = scenarios::parseCivilDate(*v->asString());
    if (!request.date)
      return Result::failure("malformed date '" + *v->asString() + "'");
  }
  if (const auto* v = body.find("urls"); v && v->asArray()) {
    for (const auto& url : *v->asArray()) {
      if (!url.asString()) return Result::failure("urls entries must be strings");
      request.urls.push_back(*url.asString());
    }
  }

  if (const auto* v = body.find("token"); v && v->asString())
    request.token = *v->asString();

  switch (request.kind) {
    case Kind::kCampaign:
      if (request.snapshot.empty())
        return Result::failure("campaign session needs a snapshot");
      if (request.resume && request.journalPath.empty())
        return Result::failure("resume needs a journal path");
      break;
    case Kind::kQuery:
      if (request.snapshot.empty())
        return Result::failure("query session needs a snapshot");
      if (request.fieldVantage.empty())
        return Result::failure("query session needs a vantage");
      if (!request.date) return Result::failure("query session needs a date");
      if (request.urls.empty())
        return Result::failure("query session needs urls");
      break;
    case Kind::kHold:
      if (request.token.empty())
        return Result::failure("hold session needs a token");
      break;
  }
  return request;
}

Json SessionRequest::toJson() const {
  Json out = Json::object();
  switch (kind) {
    case Kind::kCampaign: out["kind"] = Json::string("campaign"); break;
    case Kind::kQuery: out["kind"] = Json::string("query"); break;
    case Kind::kHold: out["kind"] = Json::string("hold"); break;
  }
  if (!snapshot.empty()) out["snapshot"] = Json::string(snapshot);
  if (classifyThreads != 0)
    out["classify_threads"] =
        Json::number(static_cast<std::int64_t>(classifyThreads));
  if (!journalPath.empty()) out["journal"] = Json::string(journalPath);
  if (resume) out["resume"] = Json::boolean(true);
  if (crashAfter > 0) out["crash_after"] = Json::number(std::int64_t{crashAfter});
  if (!fieldVantage.empty()) out["vantage"] = Json::string(fieldVantage);
  if (kind == Kind::kQuery) out["lab"] = Json::string(labVantage);
  if (date) out["date"] = Json::string(date->iso());
  if (!urls.empty()) {
    Json list = Json::array();
    for (const auto& url : urls) list.push(Json::string(url));
    out["urls"] = std::move(list);
  }
  if (!token.empty()) out["token"] = Json::string(token);
  return out;
}

http::Response jsonResponse(int status, const Json& body) {
  http::Response response;
  response.statusCode = status;
  response.reason = std::string(http::reasonPhrase(status));
  response.body = body.dump();
  response.headers.set("Content-Type", "application/json");
  response.headers.set("Content-Length", std::to_string(response.body.size()));
  return response;
}

std::optional<Json> bodyJson(const http::Request& request) {
  if (request.body.empty()) return std::nullopt;
  return Json::parse(request.body);
}

http::Response errorResponse(int status, std::string_view message) {
  Json body = Json::object();
  body["error"] = Json::string(message);
  return jsonResponse(status, body);
}

}  // namespace urlf::serve
