#include "util/strings.h"

#include <algorithm>
#include <cctype>

namespace urlf::util {

namespace {
// ASCII-only case mapping, as std::tolower/toupper in the "C" locale, but
// inline and branch-free so folding a whole fetch trace vectorizes.
char lowerChar(char c) {
  return static_cast<char>(c + ((c >= 'A' && c <= 'Z') ? 'a' - 'A' : 0));
}
char upperChar(char c) {
  return static_cast<char>(c - ((c >= 'a' && c <= 'z') ? 'a' - 'A' : 0));
}
bool isSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
}  // namespace

std::string toLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), lowerChar);
  return out;
}

void toLowerInto(std::string_view s, std::string& out) {
  out.resize(s.size());
  std::transform(s.begin(), s.end(), out.begin(), lowerChar);
}

std::string toUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), upperChar);
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && isSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && isSpace(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](char x, char y) { return lowerChar(x) == lowerChar(y); });
}

bool icontains(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  const auto it = std::search(
      haystack.begin(), haystack.end(), needle.begin(), needle.end(),
      [](char x, char y) { return lowerChar(x) == lowerChar(y); });
  return it != haystack.end();
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string replaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

}  // namespace urlf::util
