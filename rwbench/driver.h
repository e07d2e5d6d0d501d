// The rwbench driver's workloads.  Each runs set-up `setup_reps` times
// (reporting every repetition), then whole closed-loop passes over the
// seed-permuted work items until `seconds` have elapsed, checking every
// answer against its recorded reference.
#ifndef RWBENCH_DRIVER_H_
#define RWBENCH_DRIVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rwbench/common.h"
#include "rwbench/trace.h"

namespace rwbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setup_reps = 3;
  bool audit = false;
  std::string data_dir = "rwbench/data";
  // Where the run writes: daemon logs, span files, the shadow WAL.
  std::string state_dir = ".bench_build/state";
  std::string rwld;              // mixed_tcp: the daemon binary
  std::vector<int> server_cpus;  // mixed_tcp: the daemon's CPU set
  Clock::time_point process_start;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;  // one per set-up repetition
  WindowedSamples query_us;
  WindowedSamples mutation_us;
  uint64_t ops = 0;
  double span_s = 0.0;
  std::vector<uint64_t> windows;  // ops started per one-second window
  std::vector<bool> partial;      // windows cut short by a segment's end
  double peak_rss_mib = 0.0;
  std::vector<Metric> layers;                 // traced runs only
  std::map<std::string, std::string> env;     // CPU sets, span file

  // Counts one checked op; prints the first few failures.
  void Check(bool ok, const std::string& what);
  // Adds another thread's outcome of the same timed segment.
  void Combine(const Outcome& other);
  // Appends a timed segment: its windows 0..whole-1 are whole, anything
  // later is folded into one window marked partial.
  void Absorb(const Outcome& segment, size_t whole);
};

using References = std::map<std::string, Reference>;

// The reference for (item, variant); exits loudly when it is missing or
// was recorded for other inputs.
const Reference& RequireReference(const References& refs, const Item& item,
                                  Variant variant);

// Keeps a traced run's per-layer metrics (per-op rates over `ops`), writes
// its spans under the state directory and prints their self times.
void FinishTrace(const Config& config, const Layers& layers,
                 const Tracer& tracer, uint64_t ops,
                 const std::map<std::string, double>& extra, Outcome* out);

// Runs whole passes of `n` ops from `start` until `seconds` have elapsed;
// op(index_in_pass, request_number, window), where `window` is the
// one-second window of the run the op starts in.  Whole passes keep the op
// mix the same in every run whatever the machine's speed.  Counts ops per
// window into *windows when given.  Returns the op count.
template <typename Op>
uint64_t RunPasses(Clock::time_point start, size_t n, double seconds,
                   std::vector<uint64_t>* windows, Op&& op) {
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  uint64_t request = 0;
  do {
    for (size_t i = 0; i < n; ++i) {
      const size_t window = static_cast<size_t>(
          std::chrono::duration<double>(Clock::now() - start).count());
      op(i, request++, window);
      if (windows == nullptr) continue;
      if (window >= windows->size()) windows->resize(window + 1, 0);
      ++(*windows)[window];
    }
  } while (Clock::now() < deadline);
  return request;
}

// The run's slowest whole one-second window: the one with the fewest ops,
// or WindowedSamples::kAllWindows when the run has fewer than two whole
// windows.  The end-to-end metrics are read from it.  The shared host this
// was built on speeds a pinned CPU up in bursts of one to twenty seconds,
// so a whole-run average depends on how many bursts a run happened to
// catch; the slowest second drops the short bursts.  Host speed regimes
// that outlast a run still show (rwbench/README.md).
size_t SlowestWindow(const Outcome& out);

Outcome RunWarmRead(const Config& config, const std::vector<Item>& items,
                    const References& refs);
Outcome RunColdSolve(const Config& config, const std::vector<Item>& items,
                     const References& refs);
Outcome RunMixedTcp(const Config& config, const std::vector<Item>& items,
                    const References& refs);

// --regen-catalog / --regen-refs.
int RegenerateCatalog(const std::string& data_dir);
int RegenerateReferences(const std::string& data_dir);

}  // namespace rwbench

#endif  // RWBENCH_DRIVER_H_
