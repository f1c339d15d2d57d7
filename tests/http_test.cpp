#include <gtest/gtest.h>

#include "http/header_map.h"
#include "http/html.h"
#include "http/message.h"
#include "http/status.h"
#include "http/wire.h"
#include "util/rng.h"

namespace urlf::http {
namespace {

// ---------------------------------------------------------- HeaderMap ----

TEST(HeaderMapTest, CaseInsensitiveGet) {
  HeaderMap headers;
  headers.add("Content-Type", "text/html");
  EXPECT_EQ(headers.get("content-type").value(), "text/html");
  EXPECT_EQ(headers.get("CONTENT-TYPE").value(), "text/html");
  EXPECT_FALSE(headers.get("Content-Length"));
}

TEST(HeaderMapTest, PreservesInsertionOrder) {
  HeaderMap headers{{"B", "2"}, {"A", "1"}, {"C", "3"}};
  ASSERT_EQ(headers.size(), 3u);
  EXPECT_EQ(headers.fields()[0].name, "B");
  EXPECT_EQ(headers.fields()[1].name, "A");
  EXPECT_EQ(headers.fields()[2].name, "C");
}

TEST(HeaderMapTest, AddKeepsDuplicates) {
  HeaderMap headers;
  headers.add("Via", "1.1 a");
  headers.add("via", "1.1 b");
  const auto all = headers.getAll("VIA");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "1.1 a");
  EXPECT_EQ(all[1], "1.1 b");
  EXPECT_EQ(headers.get("Via").value(), "1.1 a");  // first wins
}

TEST(HeaderMapTest, SetReplacesAll) {
  HeaderMap headers;
  headers.add("X", "1");
  headers.add("x", "2");
  headers.set("X", "3");
  EXPECT_EQ(headers.getAll("x").size(), 1u);
  EXPECT_EQ(headers.get("X").value(), "3");
}

TEST(HeaderMapTest, RemoveReturnsCount) {
  HeaderMap headers{{"A", "1"}, {"a", "2"}, {"B", "3"}};
  EXPECT_EQ(headers.remove("A"), 2u);
  EXPECT_EQ(headers.remove("A"), 0u);
  EXPECT_EQ(headers.size(), 1u);
}

TEST(HeaderMapTest, AnyValueContains) {
  HeaderMap headers{{"Via", "1.1 mwg (McAfee Web Gateway 7.2)"}};
  EXPECT_TRUE(headers.anyValueContains("mcafee web gateway"));
  EXPECT_FALSE(headers.anyValueContains("netsweeper"));
}

TEST(HeaderMapTest, SerializeFormat) {
  HeaderMap headers{{"Host", "example.com"}, {"Accept", "*/*"}};
  EXPECT_EQ(headers.serialize(), "Host: example.com\r\nAccept: */*\r\n");
}

TEST(HeaderMapTest, EqualityIsNameCaseInsensitive) {
  HeaderMap a{{"Host", "x"}};
  HeaderMap b{{"host", "x"}};
  HeaderMap c{{"host", "y"}};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

// ------------------------------------------------------------- Status ----

TEST(StatusTest, ReasonPhrases) {
  EXPECT_EQ(reasonPhrase(Status::kOk), "OK");
  EXPECT_EQ(reasonPhrase(Status::kForbidden), "Forbidden");
  EXPECT_EQ(reasonPhrase(302), "Found");
  EXPECT_EQ(reasonPhrase(999), "Unknown");
}

TEST(StatusTest, Predicates) {
  EXPECT_TRUE(isRedirectCode(302));
  EXPECT_TRUE(isRedirectCode(301));
  EXPECT_FALSE(isRedirectCode(200));
  EXPECT_TRUE(isSuccessCode(204));
  EXPECT_FALSE(isSuccessCode(302));
}

// ------------------------------------------------------------ Message ----

TEST(MessageTest, GetBuildsStandardHeaders) {
  const auto req = Request::get("http://example.com/page?q=1");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.headers.get("Host").value(), "example.com");
  EXPECT_TRUE(req.headers.contains("User-Agent"));
  EXPECT_EQ(req.requestLine(), "GET /page?q=1 HTTP/1.1");
}

TEST(MessageTest, GetThrowsOnMalformedUrl) {
  EXPECT_THROW(Request::get("not a url"), std::invalid_argument);
}

TEST(MessageTest, ResponseMakeSetsContentHeaders) {
  const auto resp = Response::make(Status::kOk, "hello", "text/plain");
  EXPECT_EQ(resp.statusCode, 200);
  EXPECT_EQ(resp.headers.get("Content-Type").value(), "text/plain");
  EXPECT_EQ(resp.headers.get("Content-Length").value(), "5");
  EXPECT_EQ(resp.statusLine(), "HTTP/1.1 200 OK");
}

TEST(MessageTest, RedirectHelpers) {
  auto resp = Response::make(Status::kFound);
  EXPECT_TRUE(resp.isRedirect());
  EXPECT_FALSE(resp.location());
  resp.headers.add("Location", "http://x.com/");
  EXPECT_EQ(resp.location().value(), "http://x.com/");
}

// --------------------------------------------------------------- Wire ----

TEST(WireTest, SerializeResponse) {
  auto resp = Response::make(Status::kForbidden, "<h1>no</h1>");
  const auto wire = serialize(resp);
  EXPECT_TRUE(wire.starts_with("HTTP/1.1 403 Forbidden\r\n"));
  EXPECT_TRUE(wire.ends_with("\r\n\r\n<h1>no</h1>"));
}

TEST(WireTest, ResponseRoundTrip) {
  auto resp = Response::make(Status::kOk, "body-bytes");
  resp.headers.add("Server", "Netsweeper/5.0");
  const auto parsed = parseResponse(serialize(resp));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->statusCode, 200);
  EXPECT_EQ(parsed->body, "body-bytes");
  EXPECT_EQ(parsed->headers.get("Server").value(), "Netsweeper/5.0");
}

TEST(WireTest, ParseWithoutContentLengthUsesRemainder) {
  const auto parsed = parseResponse(
      "HTTP/1.1 200 OK\r\nServer: x\r\n\r\neverything after blank line");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->body, "everything after blank line");
}

TEST(WireTest, ParseRejectsMalformed) {
  EXPECT_FALSE(parseResponse(""));
  EXPECT_FALSE(parseResponse("garbage"));
  EXPECT_FALSE(parseResponse("HTTP/1.1 XYZ Bad\r\n\r\n"));
  EXPECT_FALSE(parseResponse("HTTP/1.1 200 OK\r\nNoColonHere\r\n\r\n"));
  EXPECT_FALSE(parseResponse("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"));
  EXPECT_FALSE(parseResponse("SPDY/1 200 OK\r\n\r\n"));
}

TEST(WireTest, RequestRoundTrip) {
  auto req = Request::get("http://example.com:8080/path?a=b");
  const auto parsed = parseRequest(serialize(req));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->url.host(), "example.com");
  EXPECT_EQ(parsed->url.path(), "/path");
  EXPECT_EQ(parsed->url.query(), "a=b");
}

TEST(WireTest, RequestRequiresHostHeader) {
  EXPECT_FALSE(parseRequest("GET / HTTP/1.1\r\nAccept: */*\r\n\r\n"));
}

/// Property: responses with pseudo-random bodies and headers round-trip.
class WireRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTripProperty, ResponsesRoundTrip) {
  util::Rng rng(GetParam());
  const Status statuses[] = {Status::kOk, Status::kFound, Status::kForbidden,
                             Status::kNotFound, Status::kServiceUnavailable};
  for (int i = 0; i < 50; ++i) {
    std::string body;
    const auto len = rng.uniform(0, 300);
    for (std::uint64_t j = 0; j < len; ++j)
      body += static_cast<char>(rng.uniform(32, 126));  // printable, no CRLF
    auto resp = Response::make(statuses[rng.index(5)], body);
    resp.headers.add("X-Seq", std::to_string(i));
    const auto parsed = parseResponse(serialize(resp));
    ASSERT_TRUE(parsed);
    ASSERT_EQ(parsed->statusCode, resp.statusCode);
    ASSERT_EQ(parsed->body, body);
    ASSERT_EQ(parsed->headers.get("X-Seq").value(), std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WireRoundTripProperty,
                         ::testing::Values(3u, 33u, 333u, 3333u));

// --------------------------------------------------------------- Html ----

// ------------------------------------------------------------- framing ----

TEST(MessageFrameTest, FramesBackToBackMessages) {
  const std::string one = "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  const std::string two = "GET /b HTTP/1.1\r\n\r\n";
  const auto frame = messageFrame(one + two);
  ASSERT_EQ(frame.state, Frame::State::kComplete);
  EXPECT_EQ(frame.size, one.size());
  EXPECT_EQ(messageFrame(one.substr(0, one.size() - 1)).state,
            Frame::State::kIncomplete);
}

TEST(MessageFrameTest, RefusesContentLengthThatOverflows) {
  // 2^64 + 1 wraps to 1 in unchecked 64-bit arithmetic and would frame a
  // "complete" message out of a truncated buffer.
  const std::string wrapped =
      "POST / HTTP/1.1\r\nContent-Length: 18446744073709551617\r\n\r\nxy";
  EXPECT_EQ(messageFrame(wrapped).state, Frame::State::kBad);
  const std::string huge =
      "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
  EXPECT_EQ(messageFrame(huge).state, Frame::State::kBad);
}

TEST(MessageFrameTest, BoundsTheMessageSize) {
  const std::string head = "POST / HTTP/1.1\r\nContent-Length: ";
  const std::size_t headerBytes = head.size() + 4;  // + final CRLFCRLF
  const auto withLength = [&](std::size_t length) {
    return head + std::to_string(length) + "\r\n\r\n";
  };
  const std::size_t largest =
      kMaxMessageBytes - headerBytes - std::to_string(kMaxMessageBytes).size();
  EXPECT_EQ(messageFrame(withLength(largest)).state, Frame::State::kIncomplete);
  EXPECT_EQ(messageFrame(withLength(kMaxMessageBytes)).state,
            Frame::State::kBad);
}

TEST(MessageFrameTest, BoundsTheHeaderBlock) {
  // A header block that never ends is refused once it passes the bound...
  std::string endless = "GET / HTTP/1.1\r\n";
  while (endless.size() <= kMaxHeaderBytes + 64)
    endless += "X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  EXPECT_EQ(messageFrame(endless).state, Frame::State::kBad);
  // ...and so is an over-long block that does end.
  EXPECT_EQ(messageFrame(endless + "\r\n").state, Frame::State::kBad);
  // Just under the bound still waits for the rest.
  EXPECT_EQ(messageFrame(endless.substr(0, kMaxHeaderBytes)).state,
            Frame::State::kIncomplete);
  // The first line keeps its own bound.
  EXPECT_EQ(messageFrame(std::string(kMaxHeaderBytes + 1, 'G')).state,
            Frame::State::kBad);
}

TEST(HtmlTest, ExtractTitle) {
  EXPECT_EQ(extractTitle("<html><head><title>McAfee Web Gateway</title>"),
            "McAfee Web Gateway");
  EXPECT_EQ(extractTitle("<TITLE>  padded  </TITLE>"), "padded");
  EXPECT_EQ(extractTitle("<title lang=\"en\">attr</title>"), "attr");
  EXPECT_EQ(extractTitle("no title here"), "");
  EXPECT_EQ(extractTitle("<title>unclosed"), "");
}

TEST(HtmlTest, MakePageEmbedsTitleAndBody) {
  const auto page = makePage("T", "<p>B</p>");
  EXPECT_EQ(extractTitle(page), "T");
  EXPECT_NE(page.find("<p>B</p>"), std::string::npos);
}

TEST(HtmlTest, EscapeSpecials) {
  EXPECT_EQ(escape("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(escape("plain"), "plain");
}

}  // namespace
}  // namespace urlf::http
