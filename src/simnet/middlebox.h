#ifndef URLF_SIMNET_MIDDLEBOX_H
#define URLF_SIMNET_MIDDLEBOX_H

#include <cstdint>
#include <string>

#include "simnet/path_stage.h"

namespace urlf::simnet {

/// An in-path device in an ISP: sees every outbound subscriber request and
/// may short-circuit it (block page, redirect, RST, blackhole) and/or
/// annotate traffic (proxy Via headers). URL filtering products implement
/// this interface.
///
/// As a path stage a middlebox acts on two hooks: onRequest inspects
/// `ctx.request()` (and may annotate it through `ctx.annotate()`) under the
/// policy view `ctx.policy`, and a returned Preempt short-circuits the
/// exchange — the origin is never contacted; onResponse post-processes the
/// origin's response on the way back (e.g. a transparent proxy stamping Via
/// headers).
class Middlebox : public PathStage {
 public:
  Middlebox() : PathStage(PathLayer::kHttp) {}
  Middlebox(const Middlebox&) = delete;
  Middlebox& operator=(const Middlebox&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// A monotone counter covering every mutable input that can change what
  /// onRequest() returns for a given (request, now) — e.g. category-database
  /// mutation counts. Verdict memoization is valid only while the epoch (and
  /// the clock) is unchanged. Stateless boxes keep the default 0.
  [[nodiscard]] virtual std::uint64_t stateEpoch() const { return 0; }
};

}  // namespace urlf::simnet

#endif  // URLF_SIMNET_MIDDLEBOX_H
