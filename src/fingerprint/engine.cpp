#include "fingerprint/engine.h"

#include "http/html.h"

namespace urlf::fingerprint {

using filters::ProductKind;

void Engine::addSignature(Signature signature) {
  signatures_.push_back(std::move(signature));
}

Engine Engine::withBuiltinSignatures() {
  Engine engine;

  // Blue Coat (Table 2): "Built in detection or Location header contains
  // hostname www.cfauth.com"; Shodan keywords "proxysg", "cfru=".
  engine.addSignature(Signature{
      ProductKind::kBlueCoat,
      "bluecoat-proxysg",
      {
          {Matcher::locationContains("www.cfauth.com"), 1.0},
          {Matcher::locationContains("cfru="), 0.95},
          {Matcher::headerContains("Server", "ProxySG"), 1.0},
          // A title mentioning ProxySG is weak evidence (reviews and forum
          // pages carry it); below threshold on its own. Real consoles also
          // send "Server: Blue Coat ProxySG".
          {Matcher::titleContains("ProxySG"), 0.45},
      },
      0.5,
  });

  // McAfee SmartFilter (Table 2): "Via-Proxy header or HTML title contains
  // 'McAfee Web Gateway'".
  engine.addSignature(Signature{
      ProductKind::kSmartFilter,
      "mcafee-web-gateway",
      {
          {Matcher::headerContains("Via", "McAfee Web Gateway"), 1.0},
          {Matcher::titleContains("McAfee Web Gateway"), 1.0},
          {Matcher::headerContains("Server", "McAfee Web Gateway"), 0.95},
      },
      0.5,
  });

  // Netsweeper (Table 2): "Built in detection"; keyed on the WebAdmin
  // console and deny-page artifacts.
  engine.addSignature(Signature{
      ProductKind::kNetsweeper,
      "netsweeper-webadmin",
      {
          {Matcher::titleContains("Netsweeper"), 1.0},
          {Matcher::headerContains("Server", "Netsweeper"), 1.0},
          {Matcher::locationContains("/webadmin/"), 0.9},
          {Matcher::bodyContains("netsweeper webadmin"), 0.95},
      },
      0.5,
  });

  // Websense (Table 2): "Location header redirects to a host on port 15871
  // with parameter 'ws-session'".
  engine.addSignature(Signature{
      ProductKind::kWebsense,
      "websense-gateway",
      {
          {Matcher::locationRedirect(15871, "ws-session"), 1.0},
          {Matcher::headerContains("Server", "Websense"), 0.95},
          // Body-only mention of blockpage.cgi is weak evidence (tutorials
          // and clones use the name); below threshold on its own.
          {Matcher::bodyContains("blockpage.cgi"), 0.45},
          {Matcher::titleContains("Websense"), 0.9},
      },
      0.5,
  });

  return engine;
}

void Engine::evaluatePrepared(const PreparedObservation& view,
                              std::vector<Match>& out) const {
  for (const auto& signature : signatures_) {
    Match match;
    match.product = signature.product;
    match.signatureName = signature.name;
    for (const auto& [matcher, weight] : signature.matchers) {
      if (const auto evidence = matcher.match(view)) {
        match.certainty = std::max(match.certainty, weight);
        match.evidence.push_back(matcher.describe() + " -> " + *evidence);
      }
    }
    if (match.certainty >= signature.threshold) out.push_back(std::move(match));
  }
}

std::vector<Match> Engine::evaluate(const Observation& obs) const {
  // Case-fold the observation once; every signature rule then probes the
  // prepared view instead of re-lowercasing body/title per matcher.
  const PreparedObservation view(obs);
  std::vector<Match> out;
  evaluatePrepared(view, out);
  return out;
}

void Engine::evaluateInto(const Observation& obs, PreparedObservation& view,
                          std::vector<Match>& out) const {
  view.assign(obs);
  out.clear();
  evaluatePrepared(view, out);
}

bool Engine::observeInto(simnet::World& world, net::Ipv4Addr ip,
                         std::uint16_t port, Observation& out) {
  http::Request request;
  return observeInto(world, ip, port, out, request);
}

bool Engine::observeInto(simnet::World& world, net::Ipv4Addr ip,
                         std::uint16_t port, Observation& out,
                         http::Request& request) {
  net::Url url{"http", ip.toString(), port, "/", ""};
  if (request.headers.empty())
    request = http::Request::get(url);
  else
    request.retarget(std::move(url));
  auto response = world.probeExternal(ip, port, request);
  if (!response) return false;

  out.ip = ip;
  out.port = port;
  out.statusCode = response->statusCode;
  out.headers = std::move(response->headers);
  out.title = http::extractTitle(response->body);
  out.body = std::move(response->body);
  return true;
}

std::optional<Observation> Engine::observe(simnet::World& world,
                                           net::Ipv4Addr ip,
                                           std::uint16_t port) {
  Observation obs;
  if (!observeInto(world, ip, port, obs)) return std::nullopt;
  return obs;
}

std::vector<Match> Engine::probe(simnet::World& world, net::Ipv4Addr ip,
                                 std::uint16_t port) const {
  const auto obs = observe(world, ip, port);
  if (!obs) return {};
  return evaluate(*obs);
}

void Engine::probeInto(simnet::World& world, net::Ipv4Addr ip,
                       std::uint16_t port, EvalScratch& scratch,
                       std::vector<Match>& out) const {
  out.clear();
  if (!observeInto(world, ip, port, scratch.observation, scratch.probeRequest))
    return;
  evaluateInto(scratch.observation, scratch.view, out);
}

}  // namespace urlf::fingerprint
