#ifndef URLF_SIMNET_WORLD_H
#define URLF_SIMNET_WORLD_H

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geo/geodb.h"
#include "net/ipv4.h"
#include "simnet/as.h"
#include "simnet/endpoint.h"
#include "simnet/fault.h"
#include "simnet/flow.h"
#include "simnet/interference.h"
#include "simnet/isp.h"
#include "simnet/middlebox.h"
#include "simnet/outage.h"
#include "simnet/packet_filter.h"
#include "util/clock.h"
#include "util/rng.h"

namespace urlf::simnet {

class WorldStream;

/// An externally reachable (ip, port) with the endpoint behind it — the unit
/// a banner scanner enumerates.
struct Surface {
  net::Ipv4Addr ip;
  std::uint16_t port = 80;
  HttpEndpoint* endpoint = nullptr;
};

/// The simulated Internet.
///
/// Owns the clock, randomness, autonomous systems, ISPs, endpoints,
/// middleboxes, the DNS registry, and the (ip,port)->endpoint binding table.
/// Everything is deterministic given the construction seed.
class World {
 public:
  explicit World(std::uint64_t seed);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] util::SimClock& clock() { return clock_; }
  [[nodiscard]] const util::SimClock& clock() const { return clock_; }
  [[nodiscard]] util::SimTime now() const { return clock_.now(); }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  // --- substrate faults ---------------------------------------------------

  /// Install (or replace) the transient-fault model the transport consults.
  /// A zero-rate plan is behaviourally identical to having no plan.
  void setFaultPlan(FaultPlan plan) {
    faultPlan_ = std::move(plan);
    relinkHeadStages();
  }
  void clearFaultPlan() {
    faultPlan_.reset();
    relinkHeadStages();
  }
  [[nodiscard]] const FaultPlan* faultPlan() const {
    return faultPlan_ ? &*faultPlan_ : nullptr;
  }

  /// Install (or replace) the persistent-failure model (vantage deaths,
  /// middlebox silent-stops, DB rollback windows). Like the fault plan, an
  /// empty plan is behaviourally identical to having none.
  void setOutagePlan(OutagePlan plan) {
    outagePlan_ = std::move(plan);
    relinkHeadStages();
  }
  void clearOutagePlan() {
    outagePlan_.reset();
    relinkHeadStages();
  }
  [[nodiscard]] const OutagePlan* outagePlan() const {
    return outagePlan_ ? &*outagePlan_ : nullptr;
  }

  /// Install (or replace) the adversarial-interference model (probe
  /// detection, lockouts, tarpits, flaky enforcement, mimicry). Installing
  /// a plan resets any sliding-window state; a plan with all-inert profiles
  /// is behaviourally identical to having none.
  void setInterferencePlan(InterferencePlan plan) {
    interferencePlan_ = std::move(plan);
    interference_.clear();
    relinkHeadStages();
  }
  void clearInterferencePlan() {
    interferencePlan_.reset();
    interference_.clear();
    relinkHeadStages();
  }
  [[nodiscard]] const InterferencePlan* interferencePlan() const {
    return interferencePlan_ ? &*interferencePlan_ : nullptr;
  }

  /// Sliding-window probe/lockout counters the transport feeds — shared
  /// across all interfering ISPs like the FlowTable is across packet
  /// filters.
  [[nodiscard]] InterferenceState& interferenceState() { return interference_; }
  [[nodiscard]] const InterferenceState& interferenceState() const {
    return interference_;
  }

  /// The world-wide stages at the head of every fetch path, in path order:
  /// the outage plan, the fault plan, then the interference plan — each
  /// only while installed.
  [[nodiscard]] std::span<PathStage* const> headStages() {
    return {headStages_.data(), headStageCount_};
  }

  // --- topology -----------------------------------------------------------

  /// Create and register an AS. Throws if the ASN already exists.
  AutonomousSystem& createAs(std::uint32_t asn, std::string name,
                             std::string description, std::string countryAlpha2,
                             std::vector<net::IpPrefix> prefixes);

  [[nodiscard]] AutonomousSystem* findAs(std::uint32_t asn);
  [[nodiscard]] const AutonomousSystem* findAs(std::uint32_t asn) const;

  /// Create an ISP operating the given ASes (which must already exist).
  Isp& createIsp(std::string name, std::string countryAlpha2,
                 std::vector<std::uint32_t> asns);

  [[nodiscard]] const std::vector<std::unique_ptr<Isp>>& isps() const {
    return isps_;
  }
  [[nodiscard]] Isp* findIsp(std::string_view name);

  /// Allocate the next free address in an AS. Throws on unknown ASN.
  net::Ipv4Addr allocateAddress(std::uint32_t asn);

  // --- ownership ----------------------------------------------------------

  /// Construct an endpoint owned by the world; returns a stable reference.
  template <typename T, typename... Args>
  T& makeEndpoint(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    endpoints_.push_back(std::move(owned));
    return ref;
  }

  /// Construct a middlebox owned by the world; returns a stable reference.
  template <typename T, typename... Args>
  T& makeMiddlebox(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    middleboxes_.push_back(std::move(owned));
    return ref;
  }

  /// Construct a packet-level filter owned by the world; returns a stable
  /// reference. Attach it to an ISP's wire chain with attachPacketFilter.
  template <typename T, typename... Args>
  T& makePacketFilter(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    packetFilters_.push_back(std::move(owned));
    return ref;
  }

  /// The conntrack every ISP's packet filters share (DESIGN.md §4.8). Flows
  /// are tracked lazily — worlds without packet filters never touch it.
  [[nodiscard]] FlowTable& flows() { return flows_; }
  [[nodiscard]] const FlowTable& flows() const { return flows_; }

  /// Every middlebox the world owns, in creation order. Exposed so
  /// cross-cutting drivers (the longitudinal monitor) can enumerate
  /// deployments — e.g. to normalize policies or compute update-lag bounds —
  /// without holding references to each one.
  [[nodiscard]] const std::vector<std::unique_ptr<Middlebox>>& middleboxes()
      const {
    return middleboxes_;
  }

  /// Sum of every owned middlebox's stateEpoch(): changes whenever any
  /// mutable filtering input (category databases, frozen snapshots) changes.
  /// Together with the clock this keys verdict memoization — see
  /// measure::Client.
  /// Packet filters and the flow table fold in too: a residual hold-down
  /// arm changes what later fetches see exactly like a DB mutation does.
  [[nodiscard]] std::uint64_t middleboxStateEpoch() const {
    std::uint64_t epoch = flows_.stateEpoch() + interference_.stateEpoch();
    for (const auto& box : middleboxes_) epoch += box->stateEpoch();
    for (const auto& filter : packetFilters_) epoch += filter->stateEpoch();
    return epoch;
  }

  // --- naming & binding ---------------------------------------------------

  /// Register a DNS A record. Re-registering a name overwrites it.
  void registerHostname(std::string hostname, net::Ipv4Addr addr);

  /// Remove a DNS A record (domain teardown).
  void unregisterHostname(const std::string& hostname);

  [[nodiscard]] std::optional<net::Ipv4Addr> resolve(
      const std::string& hostname) const;

  /// Bind an endpoint at (ip, port). `externallyVisible` controls whether a
  /// global scan can see it — the paper's identification method only works
  /// on externally visible installations (§3.1, Table 5).
  void bind(net::Ipv4Addr ip, std::uint16_t port, HttpEndpoint& endpoint,
            bool externallyVisible);

  void unbind(net::Ipv4Addr ip, std::uint16_t port);

  [[nodiscard]] HttpEndpoint* endpointAt(net::Ipv4Addr ip,
                                         std::uint16_t port) const;

  /// The endpoint at (ip, port) only if it is externally visible — what an
  /// Internet-wide scanner can reach. Firewalled bindings return nullptr.
  [[nodiscard]] HttpEndpoint* externalEndpointAt(net::Ipv4Addr ip,
                                                 std::uint16_t port) const;

  /// All externally visible surfaces, in binding order.
  [[nodiscard]] std::vector<Surface> externalSurfaces() const;

  /// All registered autonomous systems (ascending ASN).
  [[nodiscard]] std::vector<const AutonomousSystem*> allAses() const;

  // --- streamed hosts -----------------------------------------------------

  /// Attach a host stream: procedurally generated hosts the world never
  /// holds resident. Streamed hosts are not bound — they never appear in
  /// externalSurfaces() — but they answer through probeExternal and are
  /// enumerated shard-by-shard by scan::crawlStream. Pass nullptr to detach.
  /// (WorldStream::materializeInto is the eager reference mode that binds
  /// every streamed host as a regular endpoint instead.)
  void attachHostStream(std::shared_ptr<const WorldStream> stream) {
    hostStream_ = std::move(stream);
  }
  [[nodiscard]] const WorldStream* hostStream() const {
    return hostStream_.get();
  }

  /// Probe (ip, port) as an external client would: a bound, externally
  /// visible endpoint answers first; otherwise an attached host stream
  /// materializes the host on demand (a pure function of the stream seed and
  /// host id, so repeated probes are byte-identical). Returns nullopt when
  /// nothing externally reachable answers.
  [[nodiscard]] std::optional<http::Response> probeExternal(
      net::Ipv4Addr ip, std::uint16_t port,
      const http::Request& request) const;

  // --- vantage points -----------------------------------------------------

  VantagePoint& createVantage(std::string name, std::string countryAlpha2,
                              const Isp* isp);
  [[nodiscard]] const std::vector<std::unique_ptr<VantagePoint>>& vantages()
      const {
    return vantages_;
  }
  [[nodiscard]] VantagePoint* findVantage(std::string_view name);

  // --- derived databases --------------------------------------------------

  /// Build a MaxMind-style geolocation DB from the AS registry.
  [[nodiscard]] geo::GeoDatabase buildGeoDatabase(double errorRate = 0.0) const;

  /// Build a Team Cymru-style whois DB from the AS registry.
  [[nodiscard]] geo::AsnDatabase buildAsnDatabase() const;

 private:
  void relinkHeadStages();

  static std::uint64_t bindingKey(net::Ipv4Addr ip, std::uint16_t port) {
    return (std::uint64_t{ip.value()} << 16) | port;
  }

  struct Binding {
    net::Ipv4Addr ip;
    std::uint16_t port;
    HttpEndpoint* endpoint;
    bool externallyVisible;
  };

  util::SimClock clock_;
  util::Rng rng_;
  std::optional<FaultPlan> faultPlan_;
  std::optional<OutagePlan> outagePlan_;
  std::optional<InterferencePlan> interferencePlan_;
  InterferenceState interference_;
  std::array<PathStage*, 3> headStages_{};
  std::size_t headStageCount_ = 0;
  std::map<std::uint32_t, std::unique_ptr<AutonomousSystem>> ases_;
  std::vector<std::unique_ptr<Isp>> isps_;
  std::vector<std::unique_ptr<HttpEndpoint>> endpoints_;
  std::vector<std::unique_ptr<Middlebox>> middleboxes_;
  std::vector<std::unique_ptr<PacketFilter>> packetFilters_;
  FlowTable flows_;
  std::vector<std::unique_ptr<VantagePoint>> vantages_;
  std::unordered_map<std::string, net::Ipv4Addr> dns_;
  /// bindingKey -> bindings_ slot; bindings_ keeps the insertion order.
  std::unordered_map<std::uint64_t, std::size_t> bindingIndex_;
  std::vector<Binding> bindings_;
  std::shared_ptr<const WorldStream> hostStream_;
};

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_WORLD_H
