#ifndef URLF_SERVE_PROTOCOL_H
#define URLF_SERVE_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "http/message.h"
#include "report/json.h"
#include "util/clock.h"
#include "util/expected.h"

namespace urlf::serve {

/// The campaign server's wire protocol rides the repo's own simulated HTTP
/// message format (src/http). JSON bodies both ways; Content-Length is set
/// explicitly on every message so http::messageFrame can frame the stream.
///
/// Endpoints:
///   POST /v1/session              run one session (kinds below)
///   GET  /v1/status               server + admission + verdict-store stats
///   GET  /v1/snapshots            resident snapshots with epochs
///   POST /v1/admin/recategorize   {snapshot, product, host, category}
///   POST /v1/admin/release        {token} — release a parked hold session
///
/// Session kinds:
///   campaign  full paper campaign on a private replica of `snapshot`,
///             optionally journaled ({journal, resume, crash_after}).
///   query     test `urls` from `vantage` (vs `lab`) at `date` on a pooled
///             replica — the cheap multi-tenant workload.
///   hold      park an admitted worker slot until its `token` is released —
///             deterministic back-pressure for admission tests.
///
/// Statuses: 200 ok; 400 malformed; 404 unknown snapshot/route; 409 journal
/// divergence on resume; 500 simulated crash; 503 shed by admission control.

/// Shed responses carry this marker so clients can tell back-pressure from
/// a server error: {"error": "shed"}.
inline constexpr std::string_view kShedMarker = "shed";

struct SessionRequest {
  enum class Kind { kCampaign, kQuery, kHold };

  /// Wire bounds: `classify_threads` and `crash_after` must be integers in
  /// [0, bound]; anything else is refused with a 400.
  static constexpr std::size_t kMaxClassifyThreads = 1024;
  static constexpr int kMaxCrashAfter = 1 << 30;

  Kind kind = Kind::kCampaign;
  std::string snapshot;

  // campaign
  std::size_t classifyThreads = 0;  ///< util::parallelFor semantics
  std::string journalPath;          ///< empty = unjournaled
  bool resume = false;              ///< open journalPath instead of starting
  int crashAfter = 0;               ///< arm CampaignJournal::crashAfterAppends

  // query
  std::string fieldVantage;
  std::string labVantage = "lab-toronto";
  std::optional<util::CivilDate> date;
  std::vector<std::string> urls;

  // hold
  std::string token;

  [[nodiscard]] static util::Expected<SessionRequest> parse(
      const report::Json& body);
  [[nodiscard]] report::Json toJson() const;
};

/// Build a JSON-bodied response with Content-Length set.
[[nodiscard]] http::Response jsonResponse(int status,
                                          const report::Json& body);

/// Parse a request body as JSON; nullopt when absent or malformed.
[[nodiscard]] std::optional<report::Json> bodyJson(
    const http::Request& request);

/// The standard error body: {"error": <message>}.
[[nodiscard]] http::Response errorResponse(int status, std::string_view message);

}  // namespace urlf::serve

#endif  // URLF_SERVE_PROTOCOL_H
