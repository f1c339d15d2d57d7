#include "scan/postings.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <queue>
#include <stdexcept>

namespace urlf::scan {

void appendVarint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

bool readVarint(std::span<const std::uint8_t> data, std::size_t& pos,
                std::uint64_t& value) {
  value = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (pos >= data.size()) return false;
    const std::uint8_t byte = data[pos++];
    value |= std::uint64_t{byte & 0x7F} << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // overlong
}

void DeltaIdList::append(std::uint32_t id) {
  if (count_ == 0) {
    appendVarint(bytes_, id);
  } else {
    if (id <= last_)
      throw std::invalid_argument("DeltaIdList::append: ids must ascend");
    appendVarint(bytes_, id - last_);
  }
  last_ = id;
  ++count_;
}

void DeltaIdList::decodeInto(std::vector<std::uint32_t>& out) const {
  std::size_t pos = 0;
  std::uint64_t value = 0;
  std::uint32_t id = 0;
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (!readVarint(bytes_, pos, value))
      throw std::logic_error("DeltaIdList: corrupt encoding");
    id = i == 0 ? static_cast<std::uint32_t>(value)
                : id + static_cast<std::uint32_t>(value);
    out.push_back(id);
  }
}

DeltaIdList DeltaIdList::fromRaw(std::uint32_t count,
                                 std::vector<std::uint8_t> bytes) {
  DeltaIdList list;
  list.count_ = count;
  list.bytes_ = std::move(bytes);
  // Restore last_ so further appends keep ascending.
  std::vector<std::uint32_t> ids;
  ids.reserve(count);
  list.decodeInto(ids);
  list.last_ = ids.empty() ? 0 : ids.back();
  return list;
}

void tokenizeAlnum(std::string_view text, std::vector<std::string_view>& out) {
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[i])) == 0)
      ++i;
    const std::size_t start = i;
    while (i < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[i])) != 0)
      ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
}

PostingShard::Builder::Builder(std::string label, std::uint32_t docBase)
    : label_(std::move(label)), docBase_(docBase) {}

void PostingShard::Builder::addDocument(std::string_view loweredText) {
  const std::uint32_t doc = docBase_ + docCount_;
  ++docCount_;

  // Documents arrive in ascending id order, so a repeated token inside one
  // document is exactly the case where its list already ends in `doc`. That
  // check dedups occurrences without sorting the token scratch — the sort
  // costs more than the extra map probes it would save, and the resulting
  // lists are identical either way (finish() sorts the vocabulary).
  tokenScratch_.clear();
  tokenizeAlnum(loweredText, tokenScratch_);
  for (const auto token : tokenScratch_) {
    const auto it = lists_.find(token);
    if (it != lists_.end()) {
      // Mapped lists are never empty (created by the append below), so a
      // list ending in `doc` means this token already occurred in this doc.
      if (it->second.lastId() != doc) it->second.append(doc);
    } else {
      lists_.emplace(std::string(token), DeltaIdList{}).first->second.append(
          doc);
    }
  }
}

PostingShard PostingShard::Builder::finish() && {
  PostingShard shard;
  shard.label_ = std::move(label_);
  shard.docBase_ = docBase_;
  shard.docCount_ = docCount_;

  // Sort the vocabulary once at seal time — the interned arena and the
  // k-way merge both rely on ascending byte order.
  std::vector<const std::pair<const std::string, DeltaIdList>*> entries;
  entries.reserve(lists_.size());
  for (const auto& entry : lists_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  shard.tokenOffsets_.reserve(entries.size() + 1);
  shard.postingOffsets_.reserve(entries.size() + 1);
  shard.tokenOffsets_.push_back(0);
  shard.postingOffsets_.push_back(0);
  for (const auto* entry : entries) {
    shard.arena_ += entry->first;
    shard.postings_.insert(shard.postings_.end(), entry->second.bytes().begin(),
                           entry->second.bytes().end());
    shard.tokenOffsets_.push_back(
        static_cast<std::uint32_t>(shard.arena_.size()));
    shard.postingOffsets_.push_back(
        static_cast<std::uint32_t>(shard.postings_.size()));
  }
  lists_.clear();
  return shard;
}

std::string_view PostingShard::token(std::size_t k) const {
  return std::string_view(arena_).substr(tokenOffsets_[k],
                                         tokenOffsets_[k + 1] - tokenOffsets_[k]);
}

void PostingShard::appendTokenPostings(std::size_t k,
                                       std::vector<std::uint32_t>& out) const {
  std::size_t pos = postingOffsets_[k];
  const std::size_t end = postingOffsets_[k + 1];
  std::uint64_t value = 0;
  std::uint32_t id = 0;
  bool first = true;
  while (pos < end) {
    if (!readVarint(postings_, pos, value))
      throw std::logic_error("PostingShard: corrupt posting bytes");
    id = first ? static_cast<std::uint32_t>(value)
               : id + static_cast<std::uint32_t>(value);
    first = false;
    out.push_back(id);
  }
}

void PostingShard::appendCandidates(std::string_view needle,
                                    std::vector<std::uint32_t>& out) const {
  const std::size_t tokens = tokenCount();
  if (needle.empty()) {
    for (std::size_t k = 0; k < tokens; ++k) appendTokenPostings(k, out);
    return;
  }
  const char* arena = arena_.data();
  const std::size_t size = arena_.size();
  std::size_t pos = 0;
  std::size_t k = 0;
  while (k < tokens && pos + needle.size() <= size) {
    const auto* hit = static_cast<const char*>(::memmem(
        arena + pos, size - pos, needle.data(), needle.size()));
    if (hit == nullptr) break;
    const auto at = static_cast<std::size_t>(hit - arena);
    // The token holding `at`: the last one starting at or before it.
    k = static_cast<std::size_t>(
            std::upper_bound(tokenOffsets_.begin() + k + 1,
                             tokenOffsets_.end() - 1, at) -
            tokenOffsets_.begin()) -
        1;
    const std::size_t tokenEnd = tokenOffsets_[k + 1];
    if (at + needle.size() > tokenEnd) {
      pos = at + 1;  // crosses into the next token: not a match
      continue;
    }
    appendTokenPostings(k, out);
    pos = tokenEnd;
    ++k;
  }
}

void PostingShard::replaceDocuments(std::span<const std::uint32_t> docs,
                                    std::span<const std::string> loweredTexts) {
  if (docs.size() != loweredTexts.size())
    throw std::invalid_argument("replaceDocuments: docs/texts size mismatch");
  std::vector<bool> replaced(docCount_, false);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (docs[i] < docBase_ || docs[i] - docBase_ >= docCount_ ||
        (i > 0 && docs[i] <= docs[i - 1]))
      throw std::invalid_argument(
          "replaceDocuments: ids must ascend inside the shard");
    replaced[docs[i] - docBase_] = true;
  }

  // (token, doc) pairs of the new texts, sorted: each token's new ids are a
  // contiguous ascending run, met in vocabulary order by the merge below.
  std::vector<std::pair<std::string_view, std::uint32_t>> fresh;
  std::vector<std::string_view> tokens;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    tokens.clear();
    tokenizeAlnum(loweredTexts[i], tokens);
    for (const auto token : tokens) fresh.emplace_back(token, docs[i]);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

  // Reserve the most the merge can write (every new pair a new token and a
  // 5-byte varint), so the rebuilt arrays never grow past it: a patched
  // shard stays about as compact as a freshly built one.
  std::size_t freshChars = 0;
  for (const auto& [token, doc] : fresh) freshChars += token.size();
  std::string arena;
  std::vector<std::uint32_t> tokenOffsets;
  std::vector<std::uint32_t> postingOffsets;
  std::vector<std::uint8_t> postings;
  arena.reserve(arena_.size() + freshChars);
  tokenOffsets.reserve(tokenOffsets_.size() + fresh.size() + 1);
  postingOffsets.reserve(postingOffsets_.size() + fresh.size() + 1);
  postings.reserve(postings_.size() + 5 * fresh.size());
  tokenOffsets.push_back(0);
  postingOffsets.push_back(0);
  const auto emit = [&](std::string_view token) {
    arena += token;
    tokenOffsets.push_back(static_cast<std::uint32_t>(arena.size()));
    postingOffsets.push_back(static_cast<std::uint32_t>(postings.size()));
  };

  std::vector<std::uint32_t> kept;
  std::vector<std::uint32_t> merged;
  std::size_t k = 0;
  std::size_t f = 0;
  const std::size_t oldTokens = tokenCount();
  while (k < oldTokens || f < fresh.size()) {
    const bool takeOld =
        k < oldTokens && (f == fresh.size() || token(k) <= fresh[f].first);
    const std::string_view current = takeOld ? token(k) : fresh[f].first;

    // The old list minus the replaced ids; untouched lists copy verbatim.
    kept.clear();
    bool touched = false;
    if (takeOld) {
      appendTokenPostings(k, kept);
      const auto firstReplaced = std::find_if(
          kept.begin(), kept.end(),
          [&](std::uint32_t id) { return replaced[id - docBase_]; });
      touched = firstReplaced != kept.end();
      kept.erase(std::remove_if(firstReplaced, kept.end(),
                                [&](std::uint32_t id) {
                                  return replaced[id - docBase_];
                                }),
                 kept.end());
    }
    const std::size_t freshBegin = f;
    while (f < fresh.size() && fresh[f].first == current) ++f;
    if (takeOld) ++k;

    if (takeOld && !touched && f == freshBegin) {
      postings.insert(postings.end(),
                      postings_.begin() + postingOffsets_[k - 1],
                      postings_.begin() + postingOffsets_[k]);
      emit(current);
      continue;
    }
    merged.clear();
    std::size_t next = freshBegin;
    for (const auto id : kept) {
      while (next < f && fresh[next].second < id)
        merged.push_back(fresh[next++].second);
      merged.push_back(id);
    }
    while (next < f) merged.push_back(fresh[next++].second);
    if (merged.empty()) continue;  // the token lost its last document
    std::uint32_t previous = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      appendVarint(postings, i == 0 ? merged[i] : merged[i] - previous);
      previous = merged[i];
    }
    emit(current);
  }

  arena_ = std::move(arena);
  tokenOffsets_ = std::move(tokenOffsets);
  postingOffsets_ = std::move(postingOffsets);
  postings_ = std::move(postings);
}

std::size_t PostingShard::memoryBytes() const {
  return arena_.capacity() + postings_.capacity() +
         (tokenOffsets_.capacity() + postingOffsets_.capacity()) *
             sizeof(std::uint32_t) +
         label_.capacity();
}

namespace {

void putVarintStr(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(value) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(value)));
}

bool getVarintStr(std::string_view data, std::size_t& pos,
                  std::uint64_t& value) {
  value = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (pos >= data.size()) return false;
    const auto byte = static_cast<std::uint8_t>(data[pos++]);
    value |= std::uint64_t{byte & 0x7F} << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

/// Read ascending offsets stored as varint deltas; the final offset must
/// equal `total`.
bool getOffsets(std::string_view data, std::size_t& pos, std::size_t count,
                std::uint64_t total, std::vector<std::uint32_t>& out) {
  out.clear();
  out.reserve(count + 1);
  out.push_back(0);
  std::uint64_t offset = 0;
  for (std::size_t k = 0; k < count; ++k) {
    std::uint64_t delta = 0;
    if (!getVarintStr(data, pos, delta)) return false;
    offset += delta;
    if (offset > total) return false;
    out.push_back(static_cast<std::uint32_t>(offset));
  }
  return offset == total;
}

}  // namespace

void PostingShard::serializeTo(std::string& out) const {
  putVarintStr(out, label_.size());
  out += label_;
  putVarintStr(out, docBase_);
  putVarintStr(out, docCount_);
  putVarintStr(out, tokenCount());
  putVarintStr(out, arena_.size());
  out += arena_;
  putVarintStr(out, postings_.size());
  out.append(reinterpret_cast<const char*>(postings_.data()),
             postings_.size());
  for (std::size_t k = 0; k < tokenCount(); ++k)
    putVarintStr(out, tokenOffsets_[k + 1] - tokenOffsets_[k]);
  for (std::size_t k = 0; k < tokenCount(); ++k)
    putVarintStr(out, postingOffsets_[k + 1] - postingOffsets_[k]);
}

bool PostingShard::deserializeFrom(std::string_view data, std::size_t& pos,
                                   PostingShard& out) {
  std::uint64_t labelLen = 0, docBase = 0, docCount = 0, tokens = 0;
  if (!getVarintStr(data, pos, labelLen)) return false;
  if (pos + labelLen > data.size()) return false;
  out.label_ = std::string(data.substr(pos, labelLen));
  pos += labelLen;
  if (!getVarintStr(data, pos, docBase) ||
      !getVarintStr(data, pos, docCount) || !getVarintStr(data, pos, tokens))
    return false;
  out.docBase_ = static_cast<std::uint32_t>(docBase);
  out.docCount_ = static_cast<std::uint32_t>(docCount);

  std::uint64_t arenaLen = 0;
  if (!getVarintStr(data, pos, arenaLen)) return false;
  if (pos + arenaLen > data.size()) return false;
  out.arena_ = std::string(data.substr(pos, arenaLen));
  pos += arenaLen;

  std::uint64_t postingLen = 0;
  if (!getVarintStr(data, pos, postingLen)) return false;
  if (pos + postingLen > data.size()) return false;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data()) + pos;
  out.postings_.assign(bytes, bytes + postingLen);
  pos += postingLen;

  if (!getOffsets(data, pos, tokens, arenaLen, out.tokenOffsets_))
    return false;
  if (!getOffsets(data, pos, tokens, postingLen, out.postingOffsets_))
    return false;
  // Vocabulary must be strictly ascending (sorted, unique).
  for (std::size_t k = 1; k < out.tokenCount(); ++k)
    if (out.token(k - 1) >= out.token(k)) return false;
  return true;
}

void forEachDistinctToken(
    std::span<const PostingShard> shards,
    const std::function<void(
        std::string_view token,
        std::span<const std::pair<std::uint32_t, std::uint32_t>> holders)>&
        visit) {
  struct Cursor {
    std::string_view token;
    std::uint32_t shard;
    std::uint32_t slot;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    // Min-heap on (token, shard): ties group consecutively, shard order
    // keeps holder lists deterministic.
    return a.token > b.token || (a.token == b.token && a.shard > b.shard);
  };

  std::vector<Cursor> heap;
  heap.reserve(shards.size());
  for (std::uint32_t s = 0; s < shards.size(); ++s)
    if (shards[s].tokenCount() > 0)
      heap.push_back({shards[s].token(0), s, 0});
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> holders;
  while (!heap.empty()) {
    const std::string_view current = heap.front().token;
    holders.clear();
    while (!heap.empty() && heap.front().token == current) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor cursor = heap.back();
      heap.pop_back();
      holders.emplace_back(cursor.shard, cursor.slot);
      const auto& shard = shards[cursor.shard];
      if (cursor.slot + 1 < shard.tokenCount()) {
        ++cursor.slot;
        cursor.token = shard.token(cursor.slot);
        heap.push_back(cursor);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    visit(current, holders);
  }
}

}  // namespace urlf::scan
