#include "http/message.h"

#include <stdexcept>

namespace urlf::http {

Request Request::get(net::Url url) {
  Request req;
  req.url = std::move(url);
  req.headers.reserve(4);
  req.headers.add("Host", req.url.host());
  req.headers.add("User-Agent", "ONI-MeasurementClient/2.1");
  req.headers.add("Accept", "*/*");
  req.headers.add("Connection", "close");
  return req;
}

Request Request::get(std::string_view urlText) {
  auto url = net::Url::parse(urlText);
  if (!url)
    throw std::invalid_argument("Request::get: malformed URL: " +
                                std::string(urlText));
  return get(std::move(*url));
}

void Request::retarget(net::Url newUrl) {
  url = std::move(newUrl);
  headers.replaceValue("Host", url.host());
}

std::string Request::requestLine() const {
  return method + " " + url.requestTarget() + " HTTP/1.1";
}

Response Response::make(Status status) {
  Response resp;
  resp.statusCode = static_cast<int>(status);
  resp.reason = std::string(reasonPhrase(status));
  return resp;
}

Response Response::make(Status status, std::string body,
                        std::string_view contentType) {
  Response resp = make(status);
  resp.body = std::move(body);
  resp.headers.reserve(3);  // room for the caller's Server header
  resp.headers.add("Content-Type", contentType);
  resp.headers.add("Content-Length", std::to_string(resp.body.size()));
  return resp;
}

std::string Response::statusLine() const {
  return "HTTP/1.1 " + std::to_string(statusCode) + " " + reason;
}

}  // namespace urlf::http
