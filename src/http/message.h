#ifndef URLF_HTTP_MESSAGE_H
#define URLF_HTTP_MESSAGE_H

#include <optional>
#include <string>
#include <string_view>

#include "http/header_map.h"
#include "http/status.h"
#include "net/url.h"

namespace urlf::http {

/// An HTTP/1.1 request as exchanged inside the simulated network.
struct Request {
  std::string method = "GET";
  net::Url url;          ///< absolute target (scheme+host+port+path+query)
  HeaderMap headers;
  std::string body;

  /// Build a plain GET with a Host header and common client headers. The
  /// fetch path builds one per URL and shares it across vantages, attempts
  /// and redirect hops, so a caller done with `url` should move it in.
  static Request get(net::Url url);
  /// Convenience: parse the URL text, then build the GET. Throws
  /// std::invalid_argument on malformed URLs.
  static Request get(std::string_view urlText);

  /// Re-point an already-built GET at a new target: swaps the url and
  /// rewrites the Host header in place. On a request primed by `get()` the
  /// result is field-for-field identical to `get(url)` — probe loops reuse
  /// one request instead of rebuilding four headers per endpoint.
  void retarget(net::Url url);

  /// Request line, e.g. "GET /path?q HTTP/1.1".
  [[nodiscard]] std::string requestLine() const;
};

/// An HTTP/1.1 response.
struct Response {
  int statusCode = 200;
  std::string reason = "OK";
  HeaderMap headers;
  std::string body;

  static Response make(Status status);
  static Response make(Status status, std::string body,
                       std::string_view contentType = "text/html");

  [[nodiscard]] bool isRedirect() const { return isRedirectCode(statusCode); }
  [[nodiscard]] bool isSuccess() const { return isSuccessCode(statusCode); }

  /// Location header, if present.
  [[nodiscard]] std::optional<std::string_view> location() const {
    return headers.get("Location");
  }

  /// Status line, e.g. "HTTP/1.1 403 Forbidden".
  [[nodiscard]] std::string statusLine() const;
};

}  // namespace urlf::http

#endif  // URLF_HTTP_MESSAGE_H
