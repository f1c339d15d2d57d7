#include "scenarios/campaign.h"

#include <cstdio>
#include <sstream>

#include "core/characterizer.h"
#include "core/confirmer.h"
#include "util/hash.h"

namespace urlf::scenarios {

namespace {

using measure::CampaignJournal;
using report::Json;

Json dateJson(const util::CivilDate& date) { return Json::string(date.iso()); }

std::optional<util::CivilDate> dateFromJson(const Json* json) {
  if (json == nullptr || !json->asString()) return std::nullopt;
  return parseCivilDate(*json->asString());
}

Json u64Json(std::uint64_t v) {
  // Stored as a decimal string: Json numbers are doubles and would round
  // seeds above 2^53.
  return Json::string(std::to_string(v));
}

std::optional<std::uint64_t> u64FromJson(const Json* json) {
  if (json == nullptr || !json->asString()) return std::nullopt;
  const std::string& text = *json->asString();
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Digest of one per-URL result — byte-identical to bench/campaign_e2e for
/// confirmed rows; degraded rows carry an explicit marker so "untestable"
/// can never collide with a tested verdict.
void digestResult(std::ostringstream& digest,
                  const measure::UrlTestResult& result) {
  digest << result.url << '|' << static_cast<int>(result.verdict) << '|';
  if (result.blockPage)
    digest << filters::toString(result.blockPage->product) << '/'
           << result.blockPage->patternName;
  else
    digest << '-';
  if (result.provenance == measure::Provenance::kDegraded) digest << "|degraded";
  digest << '\n';
}

}  // namespace

std::optional<util::CivilDate> parseCivilDate(std::string_view text) {
  int year = 0, month = 0, day = 0;
  char extra = 0;
  const std::string owned(text);
  if (std::sscanf(owned.c_str(), "%d-%d-%d%c", &year, &month, &day, &extra) !=
      3)
    return std::nullopt;
  if (year < 1970 || year > 9999 || month < 1 || month > 12 || day < 1 ||
      day > 31)
    return std::nullopt;
  return util::CivilDate{year, month, day};
}

simnet::OutagePlan OutageSpec::toPlan(std::uint64_t seed) const {
  simnet::OutagePlan plan(seed);
  for (const auto& death : vantageDeaths)
    plan.killVantage(death.vantage, util::SimTime::fromDate(death.date));
  for (const auto& stop : middleboxStops)
    plan.stopMiddlebox(stop.box, util::SimTime::fromDate(stop.date));
  for (const auto& rollback : rollbacks)
    plan.addDbRollback(util::SimTime::fromDate(rollback.from),
                       util::SimTime::fromDate(rollback.until),
                       util::SimTime::fromDate(rollback.rollbackTo));
  return plan;
}

Json OutageSpec::toJson() const {
  Json out = Json::object();
  Json deaths = Json::array();
  for (const auto& death : vantageDeaths) {
    Json e = Json::object();
    e["vantage"] = Json::string(death.vantage);
    e["date"] = dateJson(death.date);
    deaths.push(std::move(e));
  }
  out["vantage_deaths"] = std::move(deaths);
  Json stops = Json::array();
  for (const auto& stop : middleboxStops) {
    Json e = Json::object();
    e["box"] = Json::string(stop.box);
    e["date"] = dateJson(stop.date);
    stops.push(std::move(e));
  }
  out["middlebox_stops"] = std::move(stops);
  Json windows = Json::array();
  for (const auto& rollback : rollbacks) {
    Json e = Json::object();
    e["from"] = dateJson(rollback.from);
    e["until"] = dateJson(rollback.until);
    e["rollback_to"] = dateJson(rollback.rollbackTo);
    windows.push(std::move(e));
  }
  out["rollbacks"] = std::move(windows);
  return out;
}

std::optional<OutageSpec> OutageSpec::fromJson(const Json& json) {
  if (!json.isObject()) return std::nullopt;
  OutageSpec spec;
  if (const auto* deaths = json.find("vantage_deaths");
      deaths && deaths->asArray()) {
    for (const auto& entry : *deaths->asArray()) {
      const auto* vantage = entry.find("vantage");
      const auto date = dateFromJson(entry.find("date"));
      if (vantage == nullptr || !vantage->asString() || !date)
        return std::nullopt;
      spec.vantageDeaths.push_back({*vantage->asString(), *date});
    }
  }
  if (const auto* stops = json.find("middlebox_stops");
      stops && stops->asArray()) {
    for (const auto& entry : *stops->asArray()) {
      const auto* box = entry.find("box");
      const auto date = dateFromJson(entry.find("date"));
      if (box == nullptr || !box->asString() || !date) return std::nullopt;
      spec.middleboxStops.push_back({*box->asString(), *date});
    }
  }
  if (const auto* windows = json.find("rollbacks");
      windows && windows->asArray()) {
    for (const auto& entry : *windows->asArray()) {
      const auto from = dateFromJson(entry.find("from"));
      const auto until = dateFromJson(entry.find("until"));
      const auto to = dateFromJson(entry.find("rollback_to"));
      if (!from || !until || !to) return std::nullopt;
      spec.rollbacks.push_back({*from, *until, *to});
    }
  }
  return spec;
}

Json CampaignOptions::headerJson() const {
  Json out = Json::object();
  out["type"] = Json::string("campaign-config");
  out["version"] = Json::number(std::int64_t{1});
  out["seed"] = u64Json(seed);

  Json worldJson = Json::object();
  worldJson["hide_external_surfaces"] = Json::boolean(world.hideExternalSurfaces);
  worldJson["strip_branding"] = Json::boolean(world.stripBranding);
  worldJson["disregard_submitter"] = Json::boolean(world.disregardSubmitter);
  worldJson["geo_error_rate"] = Json::number(world.geoErrorRate);
  worldJson["fault_rate"] = Json::number(world.faultRate);
  worldJson["fault_seed"] = u64Json(world.faultSeed);
  worldJson["packet_mechanisms"] = Json::boolean(world.packetMechanisms);
  worldJson["rst_hold_down_hours"] =
      Json::number(std::int64_t{world.rstHoldDownHours});
  worldJson["interference_rate"] = Json::number(world.interferenceRate);
  worldJson["interference_seed"] = u64Json(world.interferenceSeed);
  worldJson["quorum_vantages"] =
      Json::number(std::int64_t{world.quorumVantages});
  out["world"] = std::move(worldJson);

  out["quorum"] = Json::number(std::int64_t{quorum});
  out["hedge"] = Json::boolean(hedge);

  Json healthJson = Json::object();
  healthJson["enabled"] = Json::boolean(healthEnabled);
  healthJson["failure_threshold"] =
      Json::number(std::int64_t{breaker.failureThreshold});
  healthJson["cooldown_hours"] = Json::number(breaker.cooldownHours);
  out["health"] = std::move(healthJson);

  out["outages"] = outages.toJson();
  return out;
}

util::Expected<CampaignOptions> CampaignOptions::fromHeaderJson(
    const Json& header) {
  using Result = util::Expected<CampaignOptions>;
  if (!header.isObject())
    return Result::failure("journal header is not an object");
  const auto* type = header.find("type");
  if (type == nullptr || !type->asString() ||
      *type->asString() != "campaign-config")
    return Result::failure("journal header is not a campaign-config record");
  const auto* version = header.find("version");
  if (version == nullptr || !version->asNumber() ||
      *version->asNumber() != 1.0)
    return Result::failure("unsupported campaign-config version");

  CampaignOptions options;
  if (const auto seed = u64FromJson(header.find("seed")))
    options.seed = *seed;
  else
    return Result::failure("journal header has no valid seed");

  std::string badCount;  // the first count field that is out of range
  const auto count = [&](const Json& object, const char* key, auto& out) {
    if (!object.readCount(key, out) && badCount.empty()) badCount = key;
  };

  if (const auto* worldJson = header.find("world");
      worldJson && worldJson->isObject()) {
    const auto boolean = [&](const char* key, bool& out) {
      if (const auto* v = worldJson->find(key); v && v->asBool())
        out = *v->asBool();
    };
    boolean("hide_external_surfaces", options.world.hideExternalSurfaces);
    boolean("strip_branding", options.world.stripBranding);
    boolean("disregard_submitter", options.world.disregardSubmitter);
    if (const auto* v = worldJson->find("geo_error_rate");
        v && v->asNumber())
      options.world.geoErrorRate = *v->asNumber();
    if (const auto* v = worldJson->find("fault_rate"); v && v->asNumber())
      options.world.faultRate = *v->asNumber();
    if (const auto seed = u64FromJson(worldJson->find("fault_seed")))
      options.world.faultSeed = *seed;
    boolean("packet_mechanisms", options.world.packetMechanisms);
    count(*worldJson, "rst_hold_down_hours", options.world.rstHoldDownHours);
    if (const auto* v = worldJson->find("interference_rate");
        v && v->asNumber())
      options.world.interferenceRate = *v->asNumber();
    if (const auto seed = u64FromJson(worldJson->find("interference_seed")))
      options.world.interferenceSeed = *seed;
    count(*worldJson, "quorum_vantages", options.world.quorumVantages);
  }

  count(header, "quorum", options.quorum);
  if (const auto* v = header.find("hedge"); v && v->asBool())
    options.hedge = *v->asBool();

  if (const auto* healthJson = header.find("health");
      healthJson && healthJson->isObject()) {
    if (const auto* v = healthJson->find("enabled"); v && v->asBool())
      options.healthEnabled = *v->asBool();
    count(*healthJson, "failure_threshold", options.breaker.failureThreshold);
    count(*healthJson, "cooldown_hours", options.breaker.cooldownHours);
  }
  if (!badCount.empty())
    return Result::failure("journal header field '" + badCount +
                           "' is not a non-negative integer");

  if (const auto* outagesJson = header.find("outages")) {
    auto spec = OutageSpec::fromJson(*outagesJson);
    if (!spec) return Result::failure("journal header has malformed outages");
    options.outages = std::move(*spec);
  }
  return options;
}

std::string CampaignReport::digestHex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

Json CampaignReport::toJson() const {
  Json out = Json::object();
  out["digest"] = Json::string(digestHex());
  out["confirmed_case_studies"] =
      Json::number(std::int64_t{confirmedCaseStudies});
  out["probe_blocked_categories"] =
      Json::number(std::int64_t{probeBlockedCategories});
  out["table4_blocked"] = Json::number(std::int64_t{table4Blocked});
  out["degraded_rows"] = Json::number(std::int64_t{degradedRows});
  if (!vantageHealth.empty()) {
    Json health = Json::object();
    for (const auto& [name, state] : vantageHealth)
      health[name] = Json::string(measure::toString(state));
    out["vantage_health"] = std::move(health);
  }
  return out;
}

CampaignReport runPaperCampaign(const CampaignOptions& options,
                                measure::CampaignJournal* journal) {
  PaperWorld paper(options.seed, options.world);
  CampaignRunContext run;
  run.journal = journal;
  return runPaperCampaign(paper, options, run);
}

CampaignReport runPaperCampaign(PaperWorld& paper,
                                const CampaignOptions& options,
                                const CampaignRunContext& run) {
  std::ostringstream digest;

  auto& world = paper.world();
  if (!options.outages.empty())
    world.setOutagePlan(options.outages.toPlan(options.seed));

  std::optional<measure::HealthRegistry> health;
  if (options.healthEnabled) health.emplace(options.breaker);

  core::CampaignContext ctx;
  ctx.journal = run.journal;
  ctx.health = health ? &*health : nullptr;
  ctx.sharedMemo = run.sharedMemo;
  ctx.memoScope = run.memoScope;

  core::Confirmer confirmer(world, paper.hosting(), paper.vendorSet());

  // --- Table 3: the ten case studies, chronologically, with the §4.4
  // Netsweeper probe interleaved in January 2013.
  CampaignReport report;
  bool categoryProbeDone = false;
  for (const auto& caseStudy : paper.caseStudies()) {
    if (!categoryProbeDone &&
        caseStudy.startDate >= util::CivilDate{2013, 1, 1}) {
      advanceClockTo(world, {2013, 1, 14});
      const auto probe = confirmer.probeNetsweeperCategories(
          "field-yemennet", "lab-toronto", {}, ctx);
      digest << "probe:";
      for (const auto& p : probe) {
        digest << p.category << '=' << (p.blocked ? '1' : '0') << ';';
        if (p.blocked) ++report.probeBlockedCategories;
      }
      digest << '\n';
      categoryProbeDone = true;
    }
    advanceClockTo(world, caseStudy.startDate);

    auto config = caseStudy.config;
    config.classifyMode = options.classifyMode;
    config.classifyThreads = options.classifyThreads;
    config.memoizeVerdicts = options.memoizeVerdicts;
    const auto result = confirmer.run(config, ctx);
    if (result.confirmed) ++report.confirmedCaseStudies;
    report.degradedRows += result.degradedSubmitted + result.degradedControl;

    digest << "case:" << filters::toString(config.product) << '|'
           << config.ispName << '|' << result.dateLabel << '|'
           << result.submittedRatio() << '|' << result.blockedRatio() << '|'
           << (result.confirmed ? 'y' : 'n') << '|'
           << result.pretestAccessibleCount << '|'
           << result.attributedToProduct << '|' << result.controlBlocked
           << '|' << result.notes << '\n';
    for (const auto& r : result.finalResults) digestResult(digest, r);
  }

  // --- Table 4: characterize the four confirmed networks.
  struct Network {
    const char* vantage;
    const char* alpha2;
    util::CivilDate date;
    int runs;
  };
  const std::vector<Network> networks{
      {"field-etisalat", "AE", {2013, 5, 6}, 1},
      {"field-yemennet", "YE", {2013, 4, 1}, 3},
      {"field-du", "AE", {2013, 4, 1}, 1},
      {"field-ooredoo", "QA", {2013, 8, 26}, 1},
  };
  core::Characterizer characterizer(world);
  for (const auto& network : networks) {
    advanceClockTo(world, network.date);
    core::CharacterizeOptions characterizeOptions;
    characterizeOptions.runs = network.runs;
    characterizeOptions.classifyMode = options.classifyMode;
    characterizeOptions.classifyThreads = options.classifyThreads;
    characterizeOptions.memoizeVerdicts = options.memoizeVerdicts;
    characterizeOptions.journal = ctx.journal;
    characterizeOptions.health = ctx.health;
    characterizeOptions.sharedMemo = ctx.sharedMemo;
    characterizeOptions.memoScope = ctx.memoScope;
    if (options.quorum >= 2) {
      // Quorum confirmation replaces per-URL repeats as the inconsistency
      // defense: every URL is fetched from the primary vantage plus its
      // "-q<i>" clones and combined k-of-n (RobustConfirmer).
      characterizeOptions.runs = 1;
      for (int i = 1; i < options.quorum; ++i)
        characterizeOptions.quorumVantages.push_back(
            std::string(network.vantage) + "-q" + std::to_string(i));
      characterizeOptions.robust.quorum = options.quorum;
      if (options.hedge) {
        characterizeOptions.robust.attemptDeadlineHours = 6;
        characterizeOptions.robust.hedgeAttempts = 2;
        characterizeOptions.robust.paceBurst = 4;
        characterizeOptions.robust.paceRefillPerHour = 2.0;
      }
    }
    const auto result = characterizer.characterize(
        network.vantage, "lab-toronto", paper.globalList(),
        paper.localList(network.alpha2), characterizeOptions);

    digest << "network:" << network.vantage << '|'
           << (result.attributedProduct
                   ? filters::toString(*result.attributedProduct)
                   : "(none)");
    for (const auto& [category, cell] : result.cells) {
      digest << '|' << category << '=' << cell.tested << '/' << cell.blocked;
      if (cell.untestable > 0) digest << "/u" << cell.untestable;
      if (cell.contested > 0) digest << "/c" << cell.contested;
      report.table4Blocked += cell.blocked;
    }
    digest << '\n';
    for (const auto& r : result.results) {
      digestResult(digest, r);
      if (r.provenance == measure::Provenance::kDegraded)
        ++report.degradedRows;
    }
  }

  report.digest = util::fnv1a64(digest.str());
  if (health) report.vantageHealth = health->snapshot();

  if (run.journal != nullptr) {
    Json e = CampaignJournal::event("campaign-end", world.now());
    e["digest"] = Json::string(report.digestHex());
    e["confirmed"] = Json::number(std::int64_t{report.confirmedCaseStudies});
    e["degraded_rows"] = Json::number(std::int64_t{report.degradedRows});
    run.journal->sync(e);
  }
  return report;
}

}  // namespace urlf::scenarios
