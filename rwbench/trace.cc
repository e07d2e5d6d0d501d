#include "rwbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "rwbench/common.h"
#include "src/core/planner.h"

namespace rwbench {

namespace {

int64_t MsToNs(double ms) { return static_cast<int64_t>(ms * 1e6); }

// The strategies the work items reach; the registry's montecarlo is the
// one no item reaches (rwbench/regen.cc).
constexpr const char* kStrategies[] = {
    "symbolic", "profile",  "maxent", "exact",    "fixed-n",
    "epsilon_semantics",    "klm",    "gmp90",    "evidence", "calibrated"};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int Tracer::Open(std::string name, uint64_t request, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), NowNs(), 0, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Close(int span) {
  if (span >= 0) spans_[span].end_ns = NowNs();
}

int Tracer::Add(std::string name, int64_t start_ns, int64_t end_ns,
                int parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::DurationUs(int span) const {
  if (span < 0) return 0.0;
  return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns) /
         1e3;
}

void Tracer::Append(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "request\tindex\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << span.request << '\t' << i << '\t' << span.parent << '\t'
        << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

void PrintSelfTimes(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  struct Row {
    uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Row> rows;
  double all_self_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    const double self = std::max(0.0, duration - child_ns[i]);
    Row& row = rows[spans[i].name];
    ++row.count;
    row.total_ns += duration;
    row.self_ns += self;
    all_self_ns += self;
  }
  std::fprintf(stderr, "%-32s %10s %12s %12s %7s\n", "span", "count",
               "mean_us", "self_us", "self%");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-32s %10llu %12.2f %12.2f %6.1f%%\n", name.c_str(),
                 static_cast<unsigned long long>(row.count),
                 row.total_ns / 1e3 / static_cast<double>(row.count),
                 row.self_ns / 1e3 / static_cast<double>(row.count),
                 all_self_ns > 0 ? 100.0 * row.self_ns / all_self_ns : 0.0);
  }
}

void Layers::Sample(const std::string& metric, double value) {
  auto& [sum, count] = sums_[metric];
  sum += value;
  ++count;
}

double Layers::Mean(const std::string& metric) const {
  auto it = sums_.find(metric);
  if (it == sums_.end() || it->second.second == 0) return 0.0;
  return it->second.first / static_cast<double>(it->second.second);
}

void Layers::AddAnswer(const rwl::service::KbService::QueryResult& result,
                       double wall_us, Tracer* tracer, int parent,
                       uint64_t request, int64_t end_ns) {
  if (!result.ok) return;
  ++answers;
  Sample("service.admit_us", wall_us - result.latency_ms * 1e3);
  const int64_t run_start = end_ns - MsToNs(result.latency_ms);
  const int run = tracer->Add("service.run", run_start, end_ns, parent,
                              request);
  const rwl::PlanTrace* plan = result.answer.plan.get();
  if (plan == nullptr) return;
  const double wait_ms = std::max(0.0, result.latency_ms - plan->total_ms);
  Sample("service.queue_wait_us", wait_ms * 1e3);
  int64_t cursor = run_start;
  tracer->Add("service.queue_wait", cursor, cursor + MsToNs(wait_ms), run,
              request);
  cursor += MsToNs(wait_ms);
  if (plan->from_cache) {
    ++plan_hits;
  } else {
    Sample("planner.plan_us", plan->planning_ms * 1e3);
    tracer->Add("planner.plan", cursor, cursor + MsToNs(plan->planning_ms),
                run, request);
    cursor += MsToNs(plan->planning_ms);
  }
  for (const rwl::PlanStep& step : plan->steps) {
    if (step.action != rwl::PlanStep::Action::kRan) continue;
    ++steps_ran;
    if (step.outcome == "final") ++steps_final;
    auto& [ms, runs] = engines[step.strategy];
    ms += step.observed_ms;
    ++runs;
    tracer->Add("engines." + step.strategy, cursor,
                cursor + MsToNs(step.observed_ms), run, request);
    cursor += MsToNs(step.observed_ms);
  }
}

void AddWireSpan(double latency_ms, Tracer* tracer, int parent,
                 uint64_t request, int64_t end_ns) {
  tracer->Add("service.run", end_ns - MsToNs(latency_ms), end_ns, parent,
              request);
}

void Layers::AddCacheStats(const rwl::QueryContext::CacheStats& before,
                           const rwl::QueryContext::CacheStats& after) {
  finite_hits += after.finite_hits - before.finite_hits;
  finite_misses += after.finite_misses - before.finite_misses;
  blob_hits += after.blob_hits - before.blob_hits;
  blob_misses += after.blob_misses - before.blob_misses;
}

std::string FinalStrategy(const rwl::Answer& answer) {
  if (answer.plan != nullptr) {
    for (const rwl::PlanStep& step : answer.plan->steps) {
      if (step.action == rwl::PlanStep::Action::kRan &&
          step.outcome == "final") {
        return step.strategy;
      }
    }
  }
  return "none";
}

rwl::QueryContext::CacheStats HeadCacheStats(
    const rwl::service::KbService& service) {
  rwl::QueryContext::CacheStats total;
  for (const auto& head : service.Heads()) {
    const rwl::QueryContext::CacheStats stats = head->context->cache_stats();
    total.finite_hits += stats.finite_hits;
    total.finite_misses += stats.finite_misses;
    total.blob_hits += stats.blob_hits;
    total.blob_misses += stats.blob_misses;
  }
  return total;
}

std::vector<Metric> LayerMetrics(const Layers& layers, uint64_t ops,
                                 const std::map<std::string, double>& extra) {
  auto given = [&](const std::string& name) {
    auto it = extra.find(name);
    return it == extra.end() ? 0.0 : it->second;
  };
  std::vector<Metric> out = {
      {"logic.parse_us", layers.Mean("logic.parse_us"), "us"},
      {"service.admit_us", layers.Mean("service.admit_us"), "us"},
      {"service.queue_wait_us", layers.Mean("service.queue_wait_us"), "us"},
      {"service.rejected", given("service.rejected"), "count"},
      {"planner.cache_hit_frac", Ratio(layers.plan_hits, layers.answers),
       "fraction"},
      {"planner.plan_us", layers.Mean("planner.plan_us"), "us"},
      {"planner.final_frac", Ratio(layers.steps_final, layers.steps_ran),
       "fraction"},
      {"semantics.compile_us", layers.Mean("semantics.compile_us"), "us"},
      {"query_context.finite_hit_frac",
       Ratio(layers.finite_hits, layers.finite_hits + layers.finite_misses),
       "fraction"},
      {"query_context.blob_hit_frac",
       Ratio(layers.blob_hits, layers.blob_hits + layers.blob_misses),
       "fraction"},
      {"catalog.load_us", layers.Mean("catalog.load_us"), "us"},
      {"catalog.mutate_us", layers.Mean("catalog.mutate_us"), "us"},
      {"catalog.publish_lag_us", layers.Mean("catalog.publish_lag_us"), "us"},
      {"catalog.minted", given("catalog.minted"), "1/mutation"},
      {"catalog.coalesced", given("catalog.coalesced"), "1/mutation"},
      {"catalog.patched_frac", given("catalog.patched_frac"), "fraction"},
      {"wal.fsync_p50_us", given("wal.fsync_p50_us"), "us"},
      {"wal.fsyncs_per_mutation", given("wal.fsyncs_per_mutation"),
       "1/mutation"},
      {"protocol.parse_request_us", layers.Mean("protocol.parse_request_us"),
       "us"},
      {"protocol.serialize_us", layers.Mean("protocol.serialize_us"), "us"},
      {"rwld.transport_us", given("rwld.transport_us"), "us"},
      {"trace.overhead_frac", given("trace.overhead_frac"), "fraction"},
  };
  for (const char* strategy : kStrategies) {
    auto it = layers.engines.find(strategy);
    const double ms = it == layers.engines.end() ? 0.0 : it->second.first;
    const uint64_t runs = it == layers.engines.end() ? 0 : it->second.second;
    out.push_back({std::string("engines.") + strategy + "_ms",
                   runs == 0 ? 0.0 : ms / static_cast<double>(runs), "ms"});
    out.push_back({std::string("engines.") + strategy + "_runs",
                   Ratio(runs, ops), "1/op"});
  }
  return out;
}

}  // namespace rwbench
