#include "util/icase_regex.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <regex>

#include "util/strings.h"

namespace urlf::util {

namespace {

using Set = std::bitset<256>;
using std::regex_constants::error_type;

constexpr std::size_t kNone = std::string_view::npos;

[[noreturn]] void reject(error_type code) { throw std::regex_error(code); }

unsigned char byte(char c) { return static_cast<unsigned char>(c); }

char lower(char c) { return static_cast<char>(std::tolower(byte(c))); }
char upper(char c) { return static_cast<char>(std::toupper(byte(c))); }

/// Bytes a literal `c` accepts: those that fold to the same lowercase byte.
Set literalSet(char c) {
  Set set;
  for (int b = 0; b < 256; ++b) set[b] = lower(static_cast<char>(b)) == lower(c);
  return set;
}

/// Bytes `\d`, `\s` or `\w` accepts in the "C" locale.
Set classSet(char name) {
  Set set;
  for (int b = 0; b < 256; ++b) {
    const auto u = static_cast<unsigned char>(b);
    set[b] = name == 'd'   ? std::isdigit(u) != 0
             : name == 's' ? std::isspace(u) != 0
                           : std::isalnum(u) != 0 || u == '_';
  }
  return set;
}

/// Bytes the bracket range `lo-hi` accepts case-insensitively: either case
/// of the byte falls in the range (compared as `char`, as the ECMAScript
/// engine does).
Set rangeSet(char lo, char hi) {
  if (lo > hi) reject(std::regex_constants::error_range);
  Set set;
  for (int b = 0; b < 256; ++b) {
    const char l = lower(static_cast<char>(b));
    const char u = upper(static_cast<char>(b));
    set[b] = (lo <= l && l <= hi) || (lo <= u && u <= hi);
  }
  return set;
}

/// `.`: every byte but the two line terminators.
Set dotSet() {
  Set set;
  set.set();
  set[byte('\n')] = false;
  set[byte('\r')] = false;
  return set;
}

/// The escape after a `\` at `p[i]`: a `\d`/`\s`/`\w` class, or escaped
/// punctuation (returned in `literal`). Letters and digits are outside the
/// subset.
Set escape(std::string_view p, std::size_t& i, std::optional<char>& literal) {
  if (i >= p.size()) reject(std::regex_constants::error_escape);
  const char c = p[i++];
  if (c == 'd' || c == 's' || c == 'w') {
    literal.reset();
    return classSet(c);
  }
  if (std::isalnum(byte(c)) != 0) reject(std::regex_constants::error_escape);
  literal = c;
  return literalSet(c);
}

/// One member of a bracket at `p[i]`: a byte (returned in `literal`) or a
/// class escape.
Set bracketMember(std::string_view p, std::size_t& i,
                  std::optional<char>& literal) {
  const char c = p[i++];
  if (c == '\\') return escape(p, i, literal);
  if (c == '[') reject(std::regex_constants::error_brack);  // [:name:] etc.
  literal = c;
  return literalSet(c);
}

/// The bracket whose `[` precedes `p[i]`; leaves `i` past its `]`.
Set bracket(std::string_view p, std::size_t& i) {
  const bool negate = i < p.size() && p[i] == '^';
  if (negate) ++i;
  Set set;
  for (bool first = true;; first = false) {
    if (i >= p.size()) reject(std::regex_constants::error_brack);
    if (p[i] == ']') {
      if (first) reject(std::regex_constants::error_brack);  // [] and [^]
      ++i;
      break;
    }
    // '-' is a literal only first or last; anywhere else it is a range.
    if (p[i] == '-' && !first && i + 1 < p.size() && p[i + 1] != ']')
      reject(std::regex_constants::error_range);
    std::optional<char> lo;
    const Set member = bracketMember(p, i, lo);
    if (i + 1 < p.size() && p[i] == '-' && p[i + 1] != ']') {
      ++i;
      std::optional<char> hi;
      (void)bracketMember(p, i, hi);
      if (!lo || !hi) reject(std::regex_constants::error_range);
      set |= rangeSet(*lo, *hi);
    } else {
      set |= member;
    }
  }
  return negate ? ~set : set;
}

/// First occurrence of `needle` (non-empty) in `hay` at or after `from`.
std::size_t find(std::string_view hay, std::string_view needle,
                 std::size_t from) {
  if (from >= hay.size()) return kNone;
  const void* hit = memmem(hay.data() + from, hay.size() - from,
                           needle.data(), needle.size());
  return hit == nullptr ? kNone
                        : static_cast<std::size_t>(
                              static_cast<const char*>(hit) - hay.data());
}

}  // namespace

IcaseRegex::IcaseRegex(std::string_view pattern) {
  std::string_view body = pattern;
  if (!body.empty() && body.front() == '(') {
    if (body.size() < 2 || body.back() != ')')
      reject(std::regex_constants::error_paren);
    body = body.substr(1, body.size() - 2);
  }

  Branch branch;
  for (std::size_t i = 0;;) {
    if (i == body.size() || body[i] == '|') {
      branches_.push_back(std::move(branch));
      branch = Branch{};
      if (i == body.size()) break;
      ++i;
      continue;
    }
    const char c = body[i++];
    if (c == '*' || c == '+' || c == '?') {
      if (branch.items.empty() || branch.items.back().optional ||
          branch.items.back().repeats)
        reject(std::regex_constants::error_badrepeat);
      branch.items.back().optional = c != '+';
      branch.items.back().repeats = c != '?';
      continue;
    }
    Item item;
    std::optional<char> literal;
    switch (c) {
      case '(':
      case ')':
        reject(std::regex_constants::error_paren);
      case ']':
        reject(std::regex_constants::error_brack);
      case '{':
      case '}':
        reject(std::regex_constants::error_brace);
      case '^':
      case '$':
        reject(std::regex_constants::error_complexity);
      case '[':
        item.accepts = bracket(body, i);
        break;
      case '.':
        item.accepts = dotSet();
        break;
      case '\\':
        item.accepts = escape(body, i, literal);
        break;
      default:
        literal = c;
        item.accepts = literalSet(c);
    }
    if (literal) item.literal = byte(lower(*literal));
    branch.items.push_back(item);
  }

  // Literal runs: consecutive literals that occur exactly once each.
  for (auto& b : branches_) {
    std::string run;
    std::size_t mandatory = 0;  // non-optional items before the current one
    std::size_t runBefore = 0;
    const auto flush = [&] {
      if (run.size() > b.required.size()) {
        b.required = run;
        b.minBefore = runBefore;
      }
      run.clear();
    };
    for (std::size_t k = 0; k < b.items.size(); ++k) {
      const Item& item = b.items[k];
      if (item.literal >= 0 && !item.optional && !item.repeats) {
        if (run.empty()) runBefore = mandatory;
        run += static_cast<char>(item.literal);
        if (k + 1 == run.size()) b.lead = run;
      } else {
        flush();
      }
      if (!item.optional) ++mandatory;
    }
    flush();
  }
}

std::optional<std::size_t> IcaseRegex::matchAt(const Item* item,
                                               const Item* end,
                                               std::string_view text,
                                               std::size_t pos) {
  for (; item != end && !item->optional && !item->repeats; ++item, ++pos)
    if (pos >= text.size() || !item->accepts[byte(text[pos])])
      return std::nullopt;
  if (item == end) return pos;
  // A quantified atom: take the longest run it allows, then give bytes back
  // one at a time — the order the ECMAScript engine tries greedy counts.
  const std::size_t most = item->repeats ? text.size() - pos
                                         : std::min<std::size_t>(1, text.size() - pos);
  std::size_t run = 0;
  while (run < most && item->accepts[byte(text[pos + run])]) ++run;
  const std::size_t least = item->optional ? 0 : 1;
  if (run < least) return std::nullopt;
  for (std::size_t k = run;; --k) {
    if (const auto found = matchAt(item + 1, end, text, pos + k)) return found;
    if (k == least) return std::nullopt;
  }
}

std::optional<IcaseRegex::Match> IcaseRegex::search(
    std::string_view text) const {
  thread_local std::string folded;
  toLowerInto(text, folded);
  return search(text, folded);
}

std::optional<IcaseRegex::Match> IcaseRegex::search(
    std::string_view text, std::string_view folded) const {
  // Candidate starts of one viable branch: `next` is the first not yet
  // tried, `last` the latest from which the required literal is reachable.
  struct Cursor {
    const Branch* branch;
    std::size_t next;
    std::size_t last;
  };
  const auto candidate = [&](const Branch& b, std::size_t from,
                             std::size_t last) -> std::size_t {
    if (from > last) return kNone;
    if (!b.lead.empty()) {
      const std::size_t hit = find(folded, b.lead, from);
      return hit <= last ? hit : kNone;
    }
    if (b.items.empty() || b.items.front().optional) return from;
    const Set& first = b.items.front().accepts;
    for (std::size_t i = from; i <= last && i < text.size(); ++i)
      if (first[byte(text[i])]) return i;
    return kNone;
  };

  std::vector<Cursor> cursors;
  for (const auto& b : branches_) {
    std::size_t last = text.size();
    if (!b.required.empty()) {
      // Prefilter: without its required literal the branch cannot match.
      std::size_t hit = find(folded, b.required, 0);
      if (hit == kNone) continue;
      for (std::size_t more; (more = find(folded, b.required, hit + 1)) != kNone;)
        hit = more;
      if (hit < b.minBefore) continue;
      last = hit - b.minBefore;
    }
    const std::size_t next = candidate(b, 0, last);
    if (next != kNone) cursors.push_back(Cursor{&b, next, last});
  }

  // Leftmost start first; at one start, branches in pattern order.
  while (true) {
    std::size_t start = kNone;
    for (const auto& c : cursors) start = std::min(start, c.next);
    if (start == kNone) return std::nullopt;
    for (auto& c : cursors) {
      if (c.next != start) continue;
      const auto& items = c.branch->items;
      if (const auto end =
              matchAt(items.data(), items.data() + items.size(), text, start))
        return Match{start, *end - start};
      c.next = candidate(*c.branch, start + 1, c.last);
    }
  }
}

}  // namespace urlf::util
