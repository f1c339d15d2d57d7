#include "http/html.h"

#include "util/strings.h"

namespace urlf::http {

namespace {

std::size_t ifind(std::string_view haystack, std::string_view needle,
                  std::size_t from) {
  const std::string lowerHay = util::toLower(haystack);
  const std::string lowerNeedle = util::toLower(needle);
  return lowerHay.find(lowerNeedle, from);
}

}  // namespace

std::string extractTitle(std::string_view html) {
  const std::size_t open = ifind(html, "<title", 0);
  if (open == std::string::npos) return {};
  const std::size_t openEnd = html.find('>', open);
  if (openEnd == std::string::npos) return {};
  const std::size_t close = ifind(html, "</title", openEnd);
  if (close == std::string::npos) return {};
  return std::string(util::trim(html.substr(openEnd + 1, close - openEnd - 1)));
}

std::string makePage(std::string_view title, std::string_view body) {
  constexpr std::string_view kHead = "<html><head><title>";
  constexpr std::string_view kMiddle = "</title></head><body>";
  constexpr std::string_view kTail = "</body></html>";
  std::string out;
  out.reserve(kHead.size() + title.size() + kMiddle.size() + body.size() +
              kTail.size());
  out += kHead;
  out += title;
  out += kMiddle;
  out += body;
  out += kTail;
  return out;
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace urlf::http
