#ifndef URLF_HTTP_WIRE_H
#define URLF_HTTP_WIRE_H

#include <optional>
#include <string>
#include <string_view>

#include "http/message.h"

namespace urlf::http {

/// Serialize a request to its RFC 7230 wire form (origin-form target).
[[nodiscard]] std::string serialize(const Request& req);

/// Serialize a response to its wire form.
[[nodiscard]] std::string serialize(const Response& resp);

/// Append a response's wire form to `out` (no intermediate string). The
/// measurement pipeline flattens every hop of a fetch into one trace; the
/// appending form lets the caller reserve once for the whole trace.
void serializeTo(const Response& resp, std::string& out);

/// Upper-bound byte count of serializeTo(resp) — exact for the body and
/// headers, slack only for the status line. Cheap enough to call per hop to
/// size a reserve().
[[nodiscard]] std::size_t serializedSizeBound(const Response& resp);

/// Parse a response from wire form. Tolerates missing Content-Length by
/// treating the remainder as the body (connection-close framing). Returns
/// nullopt on a malformed status line or header block.
[[nodiscard]] std::optional<Response> parseResponse(std::string_view wire);

/// Parse a request from wire form (origin-form target; requires Host header
/// to reconstruct the absolute URL). Returns nullopt when malformed.
[[nodiscard]] std::optional<Request> parseRequest(std::string_view wire);

/// Incremental framing over a byte stream carrying back-to-back messages
/// (either direction: the request and status lines frame identically). A
/// message is complete once its header block and `Content-Length` body bytes
/// are buffered; a missing Content-Length frames as an empty body, so
/// streamed peers must set it explicitly on every message they send.
struct Frame {
  enum class State {
    kIncomplete,  ///< need more bytes
    kComplete,    ///< first `size` bytes hold one whole message
    kBad,         ///< stream is unparseable — close the connection
  };
  State state = State::kIncomplete;
  std::size_t size = 0;  ///< set when state == kComplete
};

/// Longest first line, and longest header block, a stream may carry.
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
/// Largest whole message (header block plus body) a stream may carry —
/// far above the biggest session body or campaign response the repo sends.
inline constexpr std::size_t kMaxMessageBytes = 64 * 1024 * 1024;

/// Frame the first message in `buffer`. Never consumes bytes: callers slice
/// off `size` bytes on kComplete and hand them to parseRequest /
/// parseResponse. A first line or header block past kMaxHeaderBytes, or a
/// Content-Length that overflows or puts the message past kMaxMessageBytes,
/// frames as kBad.
[[nodiscard]] Frame messageFrame(std::string_view buffer);

}  // namespace urlf::http

#endif  // URLF_HTTP_WIRE_H
