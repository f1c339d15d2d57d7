// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload campaign|scan|monitor|serve --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// --trace 0 runs the named workload untraced and reports its five
// end-to-end metrics. --trace 1 runs the traced pass of every workload, so
// that each per-layer metric is reported whatever workload is named, plus
// each workload's tracing overhead. The last line of standard output is
// the result object; the line before it lists every metric with its base
// count.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload campaign|scan|monitor|serve "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) { return "\"" + text + "\""; }

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--trace-dir") {
      config.traceDir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !haveTrace || config.seconds <= 0) return usage();
  // The program's shared pool takes its width from URLF_THREADS; never
  // leave it to hardware concurrency. One wide: fan-outs through
  // util::parallelForChunks on a wider pool can hang (see README.md).
  setenv("URLF_THREADS", "1", 1);

  if (config.workload != "campaign" && config.workload != "scan" &&
      config.workload != "monitor" && config.workload != "serve")
    return usage();

  Outcome outcome;
  try {
    if (config.trace) {
      campaignTraced(config, outcome);
      scanTraced(config, outcome);
      monitorTraced(config, outcome);
      serveTraced(config, outcome);
    } else if (config.workload == "campaign") {
      outcome = campaignUntraced(config);
    } else if (config.workload == "scan") {
      outcome = scanUntraced(config);
    } else if (config.workload == "monitor") {
      outcome = monitorUntraced(config);
    } else {
      outcome = serveUntraced(config);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  if (outcome.attempted == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 1;
  }

  std::string layers = "{\"layers\": {";
  std::string metrics;
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& m = outcome.metrics[i];
    const std::string sep = i == 0 ? "" : ", ";
    layers += sep + quoted(m.name) + ": {\"value\": " + number(m.value) +
              ", \"unit\": " + quoted(m.unit) +
              ", \"base\": " + std::to_string(m.base) + "}";
    metrics += sep + quoted(m.name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
  }
  std::cout << layers << "}}\n";
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
