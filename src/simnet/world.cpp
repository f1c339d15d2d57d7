#include "simnet/world.h"

#include <algorithm>
#include <stdexcept>

#include "simnet/world_stream.h"
#include "util/strings.h"

namespace urlf::simnet {

World::World(std::uint64_t seed) : rng_(seed) {}

void World::relinkHeadStages() {
  headStageCount_ = 0;
  const auto link = [this](PathStage* stage) {
    if (stage != nullptr) headStages_[headStageCount_++] = stage;
  };
  link(outagePlan_ ? &*outagePlan_ : nullptr);
  link(faultPlan_ ? &*faultPlan_ : nullptr);
  link(interferencePlan_ ? &*interferencePlan_ : nullptr);
}

AutonomousSystem& World::createAs(std::uint32_t asn, std::string name,
                                  std::string description,
                                  std::string countryAlpha2,
                                  std::vector<net::IpPrefix> prefixes) {
  if (ases_.contains(asn))
    throw std::invalid_argument("World::createAs: duplicate ASN " +
                                std::to_string(asn));
  auto as = std::make_unique<AutonomousSystem>(
      asn, std::move(name), std::move(description), std::move(countryAlpha2));
  for (const auto& p : prefixes) as->announce(p);
  auto& ref = *as;
  ases_.emplace(asn, std::move(as));
  return ref;
}

AutonomousSystem* World::findAs(std::uint32_t asn) {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? nullptr : it->second.get();
}

const AutonomousSystem* World::findAs(std::uint32_t asn) const {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? nullptr : it->second.get();
}

Isp& World::createIsp(std::string name, std::string countryAlpha2,
                      std::vector<std::uint32_t> asns) {
  auto isp = std::make_unique<Isp>(std::move(name), std::move(countryAlpha2));
  for (const auto asn : asns) {
    if (!findAs(asn))
      throw std::invalid_argument("World::createIsp: unknown ASN " +
                                  std::to_string(asn));
    isp->addAsn(asn);
  }
  isps_.push_back(std::move(isp));
  return *isps_.back();
}

Isp* World::findIsp(std::string_view name) {
  for (const auto& isp : isps_)
    if (util::iequals(isp->name(), name)) return isp.get();
  return nullptr;
}

net::Ipv4Addr World::allocateAddress(std::uint32_t asn) {
  auto* as = findAs(asn);
  if (as == nullptr)
    throw std::invalid_argument("World::allocateAddress: unknown ASN " +
                                std::to_string(asn));
  return as->allocateAddress();
}

void World::registerHostname(std::string hostname, net::Ipv4Addr addr) {
  dns_[util::toLower(hostname)] = addr;
}

void World::unregisterHostname(const std::string& hostname) {
  dns_.erase(util::toLower(hostname));
}

std::optional<net::Ipv4Addr> World::resolve(const std::string& hostname) const {
  // IP literals resolve to themselves.
  if (const auto ip = net::Ipv4Addr::parse(hostname)) return ip;
  // Url hosts are already lowercase; fold only a name that needs it.
  const bool lower = std::none_of(hostname.begin(), hostname.end(),
                                  [](char c) { return c >= 'A' && c <= 'Z'; });
  const auto it =
      lower ? dns_.find(hostname) : dns_.find(util::toLower(hostname));
  if (it == dns_.end()) return std::nullopt;
  return it->second;
}

void World::bind(net::Ipv4Addr ip, std::uint16_t port, HttpEndpoint& endpoint,
                 bool externallyVisible) {
  const auto key = bindingKey(ip, port);
  if (bindingIndex_.contains(key))
    throw std::invalid_argument("World::bind: " + ip.toString() + ":" +
                                std::to_string(port) + " already bound");
  bindingIndex_.emplace(key, bindings_.size());
  bindings_.push_back({ip, port, &endpoint, externallyVisible});
}

void World::unbind(net::Ipv4Addr ip, std::uint16_t port) {
  const auto key = bindingKey(ip, port);
  const auto it = bindingIndex_.find(key);
  if (it == bindingIndex_.end()) return;
  bindings_[it->second].endpoint = nullptr;  // tombstone keeps slots stable
  bindingIndex_.erase(it);
}

HttpEndpoint* World::endpointAt(net::Ipv4Addr ip, std::uint16_t port) const {
  const auto it = bindingIndex_.find(bindingKey(ip, port));
  if (it == bindingIndex_.end()) return nullptr;
  return bindings_[it->second].endpoint;
}

HttpEndpoint* World::externalEndpointAt(net::Ipv4Addr ip,
                                        std::uint16_t port) const {
  const auto it = bindingIndex_.find(bindingKey(ip, port));
  if (it == bindingIndex_.end()) return nullptr;
  const Binding& b = bindings_[it->second];
  return b.externallyVisible ? b.endpoint : nullptr;
}

std::optional<http::Response> World::probeExternal(
    net::Ipv4Addr ip, std::uint16_t port, const http::Request& request) const {
  if (auto* endpoint = externalEndpointAt(ip, port))
    return endpoint->handle(request, clock_.now());
  if (hostStream_) {
    if (const auto id = hostStream_->hostAt(ip, port)) {
      const auto server =
          WorldStream::materializeEndpoint(hostStream_->host(*id));
      return server->handle(request, clock_.now());
    }
  }
  return std::nullopt;
}

std::vector<const AutonomousSystem*> World::allAses() const {
  std::vector<const AutonomousSystem*> out;
  out.reserve(ases_.size());
  for (const auto& [asn, as] : ases_) out.push_back(as.get());
  return out;
}

std::vector<Surface> World::externalSurfaces() const {
  std::vector<Surface> out;
  for (const auto& b : bindings_)
    if (b.endpoint != nullptr && b.externallyVisible)
      out.push_back({b.ip, b.port, b.endpoint});
  return out;
}

VantagePoint& World::createVantage(std::string name, std::string countryAlpha2,
                                   const Isp* isp) {
  auto vantage = std::make_unique<VantagePoint>();
  vantage->name = std::move(name);
  vantage->countryAlpha2 = std::move(countryAlpha2);
  vantage->isp = isp;
  vantages_.push_back(std::move(vantage));
  return *vantages_.back();
}

VantagePoint* World::findVantage(std::string_view name) {
  for (const auto& v : vantages_)
    if (util::iequals(v->name, name)) return v.get();
  return nullptr;
}

geo::GeoDatabase World::buildGeoDatabase(double errorRate) const {
  geo::GeoDatabase db;
  for (const auto& [asn, as] : ases_)
    for (const auto& prefix : as->prefixes()) db.add(prefix, as->country());
  db.setErrorModel(errorRate, /*seed=*/0x6E05C0DE);
  return db;
}

geo::AsnDatabase World::buildAsnDatabase() const {
  geo::AsnDatabase db;
  for (const auto& [asn, as] : ases_) {
    geo::AsnRecord record{asn, as->name(), as->description(), as->country()};
    for (const auto& prefix : as->prefixes()) db.add(prefix, record);
  }
  return db;
}

}  // namespace urlf::simnet
