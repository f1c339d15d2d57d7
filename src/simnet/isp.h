#ifndef URLF_SIMNET_ISP_H
#define URLF_SIMNET_ISP_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "simnet/middlebox.h"
#include "simnet/packet_filter.h"

namespace urlf::simnet {

/// An Internet service provider: a named network in one country, built on
/// one or more ASes, with the packet filters and the ordered chain of in-path
/// middleboxes that every subscriber request traverses.
class Isp {
 public:
  Isp(std::string name, std::string countryAlpha2)
      : name_(std::move(name)), country_(std::move(countryAlpha2)) {}

  Isp(const Isp&) = delete;
  Isp& operator=(const Isp&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& country() const { return country_; }
  [[nodiscard]] const std::vector<std::uint32_t>& asns() const { return asns_; }

  void addAsn(std::uint32_t asn) { asns_.push_back(asn); }

  /// Append a middlebox to the egress chain (non-owning; the World owns it).
  void attachMiddlebox(Middlebox& box) { path_.push_back(&box); }

  /// Append a packet-level filter to the wire chain (non-owning; the World
  /// owns it). Packet filters sit *under* the HTTP middleboxes: they see the
  /// subscriber's DNS queries, SYNs/ClientHellos, and cleartext request
  /// bytes before any proxy can answer.
  void attachPacketFilter(PacketFilter& filter) {
    path_.insert(path_.begin() + static_cast<std::ptrdiff_t>(packetFilters_),
                 &filter);
    ++packetFilters_;
  }

  [[nodiscard]] bool hasPacketFilters() const { return packetFilters_ > 0; }

  /// Every stage this ISP puts on a subscriber's path, in path order: the
  /// packet filters, then the middlebox chain, each in attach order.
  [[nodiscard]] std::span<PathStage* const> stages() const { return path_; }

  /// Primary ASN (the first one) — what Table 3 reports per ISP.
  [[nodiscard]] std::uint32_t primaryAsn() const {
    return asns_.empty() ? 0 : asns_.front();
  }

 private:
  std::string name_;
  std::string country_;
  std::vector<std::uint32_t> asns_;
  std::vector<PathStage*> path_;
  std::size_t packetFilters_ = 0;  ///< leading entries of path_
};

/// A measurement vantage point: either inside an ISP ("field") or in the
/// uncensored lab (isp == nullptr), mirroring §4.1 of the paper.
struct VantagePoint {
  std::string name;          ///< e.g. "field-etisalat" or "lab-toronto"
  std::string countryAlpha2; ///< "CA" for the lab
  const Isp* isp = nullptr;  ///< nullptr = uncensored lab network

  [[nodiscard]] bool isLab() const { return isp == nullptr; }
};

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_ISP_H
