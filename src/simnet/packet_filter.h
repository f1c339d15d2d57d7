#ifndef URLF_SIMNET_PACKET_FILTER_H
#define URLF_SIMNET_PACKET_FILTER_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4.h"
#include "simnet/path_stage.h"

namespace urlf::simnet {

/// What an on-path DNS poisoner answers a matching query with.
struct DnsTamper {
  enum class Kind {
    kNxdomain,  ///< forged empty answer — client sees NXDOMAIN
    kForged,    ///< forged A record — client connects to the sinkhole
  };
};

/// An on-path packet-level device in an ISP: sees subscribers' DNS queries,
/// connection attempts, and cleartext request bytes, and may tamper with or
/// kill them — but can never speak HTTP back. This is the wire-level
/// counterpart of Middlebox, modelling the blocking mechanisms the paper's
/// four products do NOT use: DNS poisoning, TCP RST/FIN injection, SNI
/// filtering, and null-routing ("Where The Light Gets In", PAPERS.md).
///
/// As a path stage a filter acts on onDns (forge `ctx.ip` or preempt with
/// NXDOMAIN), onConnect (a kill lands before any application byte:
/// rst-before-banner / timeout) and onRequest (cleartext flows only — a TLS
/// payload is opaque on the wire; a kill is rst-after-request). There is no
/// RNG on this layer: every decision is a pure function of (event, now,
/// flow-table state), which keeps mechanism-classification experiments
/// reproducible at any thread count.
class PacketFilter : public PathStage {
 public:
  PacketFilter() : PathStage(PathLayer::kPacket) {}
  PacketFilter(const PacketFilter&) = delete;
  PacketFilter& operator=(const PacketFilter&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Monotone counter over mutable inputs that can change a decision for a
  /// given (event, now, flow-table state). Rule-table edits bump it; the
  /// shared FlowTable keeps its own epoch. Stateless filters keep 0.
  [[nodiscard]] virtual std::uint64_t stateEpoch() const { return 0; }
};

// --- the four packet-level censorship mechanisms ---------------------------

/// DNS poisoner: forges answers to subscriber queries, either NXDOMAIN or a
/// wrong A record (sinkhole). With zones configured only queries for a
/// listed zone (exact host or any subdomain) are poisoned; with no zones the
/// device poisons every query — resolver-wide tampering.
class DnsPoisoner : public PacketFilter {
 public:
  DnsPoisoner(std::string name, DnsTamper::Kind mode,
              net::Ipv4Addr sinkhole = {})
      : name_(std::move(name)), mode_(mode), sinkhole_(sinkhole) {}

  void poisonZone(std::string zone);

  [[nodiscard]] std::string name() const override { return name_; }
  std::optional<Preempt> onDns(PathContext& ctx) override;
  [[nodiscard]] std::uint64_t stateEpoch() const override { return epoch_; }

  [[nodiscard]] std::uint64_t queriesPoisoned() const {
    return queriesPoisoned_;
  }

 private:
  [[nodiscard]] bool matches(std::string_view hostname) const;

  std::string name_;
  DnsTamper::Kind mode_;
  net::Ipv4Addr sinkhole_;
  std::vector<std::string> zones_;  ///< lowercased; empty = poison all
  std::uint64_t epoch_ = 0;
  std::uint64_t queriesPoisoned_ = 0;
};

/// TCP RST/FIN injector: watches cleartext request bytes (host and URL) for
/// keywords and kills matching flows with an injected reset. With a
/// hold-down window (`holdDownHours` > 0) the injector is *stateful*: after a
/// kill it resets every subsequent flow to the same destination until the
/// window expires, before any application byte — the residual-blocking
/// fingerprint.
class RstInjector : public PacketFilter {
 public:
  RstInjector(std::string name, std::vector<std::string> keywords,
              std::int64_t holdDownHours = 0);

  [[nodiscard]] std::string name() const override { return name_; }
  std::optional<Preempt> onConnect(PathContext& ctx) override;
  std::optional<Preempt> onRequest(PathContext& ctx) override;
  [[nodiscard]] std::uint64_t stateEpoch() const override { return epoch_; }
  /// A stateful injector arms hold-down state on a kill; replaying its
  /// verdicts without fetching would miss the arm.
  [[nodiscard]] Cacheability cacheability(
      const VantagePoint& vantage) const override {
    (void)vantage;
    return holdDownHours_ > 0 ? Cacheability::kLocal : Cacheability::kShared;
  }

  [[nodiscard]] std::int64_t holdDownHours() const { return holdDownHours_; }
  [[nodiscard]] std::uint64_t resetsInjected() const {
    return resetsInjected_;
  }
  [[nodiscard]] std::uint64_t residualKills() const { return residualKills_; }

 private:
  std::string name_;
  std::vector<std::string> keywords_;  ///< lowercased
  std::int64_t holdDownHours_;
  std::uint64_t epoch_ = 0;
  std::uint64_t resetsInjected_ = 0;
  std::uint64_t residualKills_ = 0;
};

/// SNI filter: resets TLS flows whose ClientHello names a listed server.
/// Fails open on ESNI-style omission — a hello with no server name passes —
/// and never touches cleartext flows.
class SniFilter : public PacketFilter {
 public:
  SniFilter(std::string name, std::vector<std::string> hostnames);

  [[nodiscard]] std::string name() const override { return name_; }
  std::optional<Preempt> onConnect(PathContext& ctx) override;
  [[nodiscard]] std::uint64_t stateEpoch() const override { return epoch_; }

  [[nodiscard]] std::uint64_t handshakesKilled() const {
    return handshakesKilled_;
  }
  [[nodiscard]] std::uint64_t esniPassed() const { return esniPassed_; }

 private:
  std::string name_;
  std::vector<std::string> hostnames_;  ///< lowercased; subdomains match
  std::uint64_t epoch_ = 0;
  std::uint64_t handshakesKilled_ = 0;
  std::uint64_t esniPassed_ = 0;
};

/// Null-route: destinations on the list are blackholed at connect time —
/// the SYN goes nowhere and the client times out. Port- and TLS-agnostic.
class NullRouteFilter : public PacketFilter {
 public:
  NullRouteFilter(std::string name, std::vector<std::string> hostnames);

  [[nodiscard]] std::string name() const override { return name_; }
  std::optional<Preempt> onConnect(PathContext& ctx) override;
  [[nodiscard]] std::uint64_t stateEpoch() const override { return epoch_; }

  [[nodiscard]] std::uint64_t flowsBlackholed() const {
    return flowsBlackholed_;
  }

 private:
  std::string name_;
  std::vector<std::string> hostnames_;  ///< lowercased; subdomains match
  std::uint64_t epoch_ = 0;
  std::uint64_t flowsBlackholed_ = 0;
};

/// True when `hostname` is `zone` or a subdomain of it (both lowercase).
[[nodiscard]] bool hostInZone(std::string_view hostname,
                              std::string_view zone);

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_PACKET_FILTER_H
