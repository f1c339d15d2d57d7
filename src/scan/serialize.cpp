#include "scan/serialize.h"

#include <limits>

#include "util/hash.h"

namespace urlf::scan {

using report::Json;

Json toJson(const BannerRecord& record) {
  Json out = Json::object();
  out["ip"] = Json::string(record.ip.toString());
  out["port"] = Json::number(std::int64_t{record.port});
  out["status"] = Json::number(std::int64_t{record.statusCode});
  Json headers = Json::array();
  for (const auto& field : record.headers.fields()) {
    Json header = Json::object();
    header["name"] = Json::string(field.name);
    header["value"] = Json::string(field.value);
    headers.push(std::move(header));
  }
  out["headers"] = std::move(headers);
  out["body"] = Json::string(record.body);
  out["title"] = Json::string(record.title);
  out["country"] = Json::string(record.countryAlpha2);
  out["observed_at_hours"] = Json::number(record.observedAt.hours());
  return out;
}

std::string exportRecords(const std::vector<BannerRecord>& records,
                          int indent) {
  Json array = Json::array();
  for (const auto& record : records) array.push(toJson(record));
  return array.dump(indent);
}

std::optional<BannerRecord> recordFromJson(const Json& json) {
  const auto* object = json.asObject();
  if (object == nullptr) return std::nullopt;

  auto getString = [&](const char* key) -> std::optional<std::string> {
    const auto* value = json.find(key);
    if (value == nullptr) return std::nullopt;
    const auto* s = value->asString();
    if (s == nullptr) return std::nullopt;
    return *s;
  };
  auto getNumber = [&](const char* key) -> std::optional<double> {
    const auto* value = json.find(key);
    if (value == nullptr) return std::nullopt;
    const auto* n = value->asNumber();
    if (n == nullptr) return std::nullopt;
    return *n;
  };

  const auto ipText = getString("ip");
  const auto portNumber = getNumber("port");
  const auto statusNumber = getNumber("status");
  if (!ipText || !portNumber || !statusNumber) return std::nullopt;
  const auto ip = net::Ipv4Addr::parse(*ipText);
  const auto port = report::boundedInteger(*portNumber, 0, 65535);
  const auto status = report::boundedInteger(*statusNumber, 0, 999);
  if (!ip || !port || !status) return std::nullopt;

  BannerRecord record;
  record.ip = *ip;
  record.port = static_cast<std::uint16_t>(*port);
  record.statusCode = static_cast<int>(*status);
  record.body = getString("body").value_or("");
  record.title = getString("title").value_or("");
  record.countryAlpha2 = getString("country").value_or("");
  if (const auto hours = getNumber("observed_at_hours")) {
    const auto checked = report::boundedInteger(
        *hours, 0, std::numeric_limits<std::int64_t>::max());
    if (!checked) return std::nullopt;
    record.observedAt = util::SimTime{*checked};
  }

  if (const auto* headers = json.find("headers")) {
    const auto* array = headers->asArray();
    if (array == nullptr) return std::nullopt;
    for (const auto& item : *array) {
      const auto* name = item.find("name");
      const auto* value = item.find("value");
      if (name == nullptr || value == nullptr || !name->asString() ||
          !value->asString())
        return std::nullopt;
      record.headers.add(*name->asString(), *value->asString());
    }
  }
  return record;
}

std::optional<std::vector<BannerRecord>> importRecords(std::string_view text) {
  const auto json = Json::parse(text);
  if (!json) return std::nullopt;
  const auto* array = json->asArray();
  if (array == nullptr) return std::nullopt;

  std::vector<BannerRecord> out;
  out.reserve(array->size());
  for (const auto& item : *array) {
    auto record = recordFromJson(item);
    if (!record) return std::nullopt;
    out.push_back(std::move(*record));
  }
  return out;
}

namespace {

constexpr std::string_view kShardedIndexMagic = "URLFSIDX1\n";

void putVarint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (value & 0x7F)));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

bool getVarint(std::string_view data, std::size_t& pos, std::uint64_t& value) {
  value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= data.size()) return false;
    const auto byte = static_cast<std::uint8_t>(data[pos++]);
    value |= std::uint64_t{byte & 0x7Fu} << shift;
    if ((byte & 0x80u) == 0) return true;
    shift += 7;
  }
  return false;
}

void putLe(std::string& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
}

bool getLe(std::string_view data, std::size_t& pos, std::uint64_t& value,
           int bytes) {
  if (pos + static_cast<std::size_t>(bytes) > data.size()) return false;
  value = 0;
  for (int i = 0; i < bytes; ++i)
    value |= std::uint64_t{static_cast<std::uint8_t>(data[pos + i])} << (8 * i);
  pos += static_cast<std::size_t>(bytes);
  return true;
}

}  // namespace

std::string exportShardedIndex(const ShardedBannerIndex& index) {
  std::string out{kShardedIndexMagic};

  const auto docs = index.docCount();
  putVarint(out, docs);
  for (std::uint32_t doc = 0; doc < docs; ++doc)
    putLe(out, index.ips()[doc], 4);
  for (std::uint32_t doc = 0; doc < docs; ++doc)
    putLe(out, index.ports()[doc], 2);

  const auto& buckets = index.countryBuckets();
  putVarint(out, buckets.size());
  for (const auto& [alpha2, bucket] : buckets) {
    putVarint(out, alpha2.size());
    out += alpha2;
    putVarint(out, bucket.count());
    putVarint(out, bucket.byteSize());
    out.append(reinterpret_cast<const char*>(bucket.bytes().data()),
               bucket.byteSize());
  }

  putVarint(out, index.shardCount());
  for (const auto& shard : index.shards()) shard.serializeTo(out);

  // Integrity trailer over everything before it.
  putLe(out, util::fnv1a64(out), 8);
  return out;
}

std::optional<ShardedBannerIndex> importShardedIndex(std::string_view data) {
  if (data.size() < kShardedIndexMagic.size() + 8) return std::nullopt;
  if (data.substr(0, kShardedIndexMagic.size()) != kShardedIndexMagic)
    return std::nullopt;

  const std::size_t payloadEnd = data.size() - 8;
  std::size_t trailerPos = payloadEnd;
  std::uint64_t checksum = 0;
  if (!getLe(data, trailerPos, checksum, 8)) return std::nullopt;
  if (util::fnv1a64(data.substr(0, payloadEnd)) != checksum)
    return std::nullopt;
  const std::string_view payload = data.substr(0, payloadEnd);

  std::size_t pos = kShardedIndexMagic.size();
  std::uint64_t docs = 0;
  if (!getVarint(payload, pos, docs)) return std::nullopt;
  if (docs > payload.size()) return std::nullopt;  // cheap sanity bound

  std::vector<std::uint32_t> ips;
  ips.reserve(docs);
  for (std::uint64_t doc = 0; doc < docs; ++doc) {
    std::uint64_t value = 0;
    if (!getLe(payload, pos, value, 4)) return std::nullopt;
    ips.push_back(static_cast<std::uint32_t>(value));
  }
  std::vector<std::uint16_t> ports;
  ports.reserve(docs);
  for (std::uint64_t doc = 0; doc < docs; ++doc) {
    std::uint64_t value = 0;
    if (!getLe(payload, pos, value, 2)) return std::nullopt;
    ports.push_back(static_cast<std::uint16_t>(value));
  }

  std::uint64_t bucketCount = 0;
  if (!getVarint(payload, pos, bucketCount)) return std::nullopt;
  std::map<std::string, DeltaIdList> buckets;
  for (std::uint64_t b = 0; b < bucketCount; ++b) {
    std::uint64_t keyLen = 0;
    if (!getVarint(payload, pos, keyLen)) return std::nullopt;
    if (pos + keyLen > payload.size()) return std::nullopt;
    std::string key{payload.substr(pos, keyLen)};
    pos += keyLen;
    std::uint64_t count = 0;
    std::uint64_t byteLen = 0;
    if (!getVarint(payload, pos, count)) return std::nullopt;
    if (!getVarint(payload, pos, byteLen)) return std::nullopt;
    if (pos + byteLen > payload.size()) return std::nullopt;
    std::vector<std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(payload.data() + pos),
        reinterpret_cast<const std::uint8_t*>(payload.data() + pos + byteLen));
    pos += byteLen;
    buckets.emplace(std::move(key),
                    DeltaIdList::fromRaw(static_cast<std::uint32_t>(count),
                                         std::move(bytes)));
  }

  std::uint64_t shardCount = 0;
  if (!getVarint(payload, pos, shardCount)) return std::nullopt;
  std::vector<PostingShard> shards;
  shards.reserve(shardCount);
  for (std::uint64_t s = 0; s < shardCount; ++s) {
    PostingShard shard;
    if (!PostingShard::deserializeFrom(payload, pos, shard))
      return std::nullopt;
    shards.push_back(std::move(shard));
  }
  if (pos != payload.size()) return std::nullopt;

  try {
    return ShardedBannerIndex::fromParts(std::move(ips), std::move(ports),
                                         std::move(buckets),
                                         std::move(shards));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace urlf::scan
