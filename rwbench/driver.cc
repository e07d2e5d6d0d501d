// rwbench — the closed-loop load generator, answer checker and layer
// tracer behind rwbench/run.py (rwbench/README.md describes the workloads
// and metrics).  It prints one JSON object as its last stdout line.
//
//   rwbench --workload warm_read|cold_solve|mixed_tcp --seed S --seconds T
//           [--trace 0|1] [--setup-reps K] [--audit] [--data DIR]
//           [--state DIR] [--rwld PATH] [--server-cpus 0,1]
//   rwbench --regen-catalog [--data DIR]
//   rwbench --regen-refs [--data DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "rwbench/driver.h"

namespace {

using namespace rwbench;

int Usage() {
  std::fprintf(stderr,
               "usage: rwbench --workload W --seed S --seconds T "
               "[--trace 0|1] [--setup-reps K] [--audit]\n"
               "               [--data DIR] [--state DIR] [--rwld PATH] "
               "[--server-cpus LIST]\n"
               "       rwbench --regen-catalog|--regen-refs [--data DIR]\n");
  return 2;
}

std::vector<int> ParseCpuList(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) cpus.push_back(std::atoi(item.c_str()));
  }
  return cpus;
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           JsonNumber(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

// The end-to-end metrics of an untraced run, read from its slowest whole
// second (see SlowestWindow).
std::vector<Metric> EndToEnd(const Outcome& out) {
  const size_t slow = SlowestWindow(out);
  const double ops_per_s = slow == WindowedSamples::kAllWindows
                               ? static_cast<double>(out.ops) / out.span_s
                               : static_cast<double>(out.windows[slow]);
  return {
      {"setup_s", Percentile(out.setup_s, 0.5), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"query_p50_us", out.query_us.Quantile(0.5, slow), "us"},
      {"query_p99_us", out.query_us.Quantile(0.99, slow), "us"},
      {"mutation_p50_us", out.mutation_us.Quantile(0.5, slow), "us"},
      {"peak_rss_mib", out.peak_rss_mib, "MiB"},
  };
}

// Refuses builds whose timings would not describe the optimized program.
bool MeasurableBuild(std::string* why) {
  const std::string type = RWBENCH_BUILD_TYPE;
  const std::string flags = RWBENCH_CXX_FLAGS;
  if (type.empty() || type == "Debug") {
    *why = "build type '" + type + "' is not optimized";
    return false;
  }
  if (flags.find("-fsanitize") != std::string::npos) {
    *why = "sanitizer build (" + flags + ")";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.process_start = Clock::now();
  std::string regen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&] { ++i; return std::string(value); };
    if (arg == "--regen-catalog" || arg == "--regen-refs") regen = arg;
    else if (arg == "--audit") config.audit = true;
    else if (value == nullptr) return Usage();
    else if (arg == "--workload") config.workload = take();
    else if (arg == "--seed") config.seed = std::strtoull(take().c_str(), nullptr, 10);
    else if (arg == "--seconds") config.seconds = std::atof(take().c_str());
    else if (arg == "--trace") config.trace = take() == "1";
    else if (arg == "--setup-reps") config.setup_reps = std::atoi(take().c_str());
    else if (arg == "--data") config.data_dir = take();
    else if (arg == "--state") config.state_dir = take();
    else if (arg == "--rwld") config.rwld = take();
    else if (arg == "--server-cpus") config.server_cpus = ParseCpuList(take());
    else return Usage();
  }
  std::string why;
  if (!MeasurableBuild(&why)) {
    std::fprintf(stderr, "rwbench: refusing to measure: %s\n", why.c_str());
    return 4;
  }
  if (regen == "--regen-catalog") return RegenerateCatalog(config.data_dir);
  if (regen == "--regen-refs") return RegenerateReferences(config.data_dir);
  if (config.seconds <= 0 || config.setup_reps < 1) return Usage();

  std::vector<Item> items;
  References refs;
  std::string error;
  if (!LoadCatalog(config.data_dir + "/catalog.jsonl", &items, &error) ||
      !LoadReferences(config.data_dir + "/references.jsonl", &refs, &error)) {
    std::fprintf(stderr, "rwbench: %s\n", error.c_str());
    return 1;
  }
  Outcome out;
  if (config.workload == "warm_read") {
    out = RunWarmRead(config, items, refs);
  } else if (config.workload == "cold_solve") {
    out = RunColdSolve(config, items, refs);
  } else if (config.workload == "mixed_tcp") {
    out = RunMixedTcp(config, items, refs);
  } else {
    return Usage();
  }
  if (out.span_s <= 0) return 1;  // the workload could not run (see stderr)

  std::string env = "{\"build_type\":\"" RWBENCH_BUILD_TYPE "\"";
  for (const auto& [key, value] : out.env) {
    env += ",\"" + key + "\":\"" + rwl::service::JsonEscape(value) + "\"";
  }
  env += ",\"setup_s\":[";
  for (size_t i = 0; i < out.setup_s.size(); ++i) {
    env += (i > 0 ? "," : "") + JsonNumber(out.setup_s[i]);
  }
  env += "],\"windows\":[";
  for (size_t i = 0; i < out.windows.size(); ++i) {
    env += (i > 0 ? "," : "") + std::to_string(out.windows[i]);
  }
  env += "],\"ops\":" + std::to_string(out.ops) +
         ",\"span_s\":" + JsonNumber(out.span_s) +
         ",\"queries\":" + std::to_string(out.query_us.size()) +
         ",\"mutations\":" + std::to_string(out.mutation_us.size()) + "}";
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s,\"env\":%s}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(config.trace ? out.layers : EndToEnd(out)).c_str(),
              env.c_str());
  return 0;
}
