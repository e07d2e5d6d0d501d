// The traced run's instruments: in-memory spans recorded around the
// benchmark's own calls into each layer, and the per-layer sums the
// per_layer metrics are computed from.
#ifndef RWBENCH_TRACE_H_
#define RWBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/service/service.h"

namespace rwbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index in the same Tracer, -1 for a root
  uint64_t request = 0;  // shared by every span of one op
};

// Spans of one thread.  A disabled tracer records nothing and returns -1.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Open(std::string name, uint64_t request, int parent = -1);
  void Close(int span);
  int Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
          uint64_t request);
  double DurationUs(int span) const;
  // Appends another thread's spans (parent indices re-based).
  void Append(const Tracer& other);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Writes every span as a tab-separated line:
// request, index, parent, name, start_ns, end_ns.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);
// Prints each span name's count, total and self time (its duration minus
// the part its child spans cover) to stderr.
void PrintSelfTimes(const std::vector<Span>& spans);

// Per-layer sums.  Mean() of a sample never taken is 0.
class Layers {
 public:
  void Sample(const std::string& metric, double value);
  double Mean(const std::string& metric) const;

  // Folds in one answered query: admission overhead (wall minus the
  // service's latency_ms), queue wait (latency_ms minus the plan's
  // total_ms), plan-cache hit or planning time, and each strategy run.
  // With a tracer, lays the same timings out as child spans of `parent`,
  // ending at `end_ns`.
  void AddAnswer(const rwl::service::KbService::QueryResult& result,
                 double wall_us, Tracer* tracer, int parent,
                 uint64_t request, int64_t end_ns);
  void AddCacheStats(const rwl::QueryContext::CacheStats& before,
                     const rwl::QueryContext::CacheStats& after);

  uint64_t answers = 0;
  uint64_t plan_hits = 0;
  uint64_t steps_ran = 0;
  uint64_t steps_final = 0;
  uint64_t finite_hits = 0, finite_misses = 0;
  uint64_t blob_hits = 0, blob_misses = 0;
  std::map<std::string, std::pair<double, uint64_t>> engines;  // ms, runs

 private:
  std::map<std::string, std::pair<double, uint64_t>> sums_;
};

// Lays the latency_ms a QUERY response reports over the wire out as a
// "service.run" child span of `parent`, ending at `end_ns`.
void AddWireSpan(double latency_ms, Tracer* tracer, int parent,
                 uint64_t request, int64_t end_ns);

// The strategy that produced an answer's final outcome ("none" if none).
std::string FinalStrategy(const rwl::Answer& answer);

// Sum of the cache counters of every head snapshot's context.
rwl::QueryContext::CacheStats HeadCacheStats(
    const rwl::service::KbService& service);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Every per_layer metric, in BENCHMARK.json order.  `extra` supplies the
// ones only some workloads measure (absent names report 0).
std::vector<Metric> LayerMetrics(const Layers& layers, uint64_t ops,
                                 const std::map<std::string, double>& extra);

}  // namespace rwbench

#endif  // RWBENCH_TRACE_H_
