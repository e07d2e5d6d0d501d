// Shared pieces of the rwbench driver: timing helpers, the fixed work-item
// catalogue, the reference-answer oracle and the service options every
// workload runs under.
#ifndef RWBENCH_COMMON_H_
#define RWBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/inference.h"
#include "src/service/protocol.h"
#include "src/service/service.h"

namespace rwbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double UsBetween(Clock::time_point from, Clock::time_point to);
int64_t ToNs(Clock::time_point time);
int64_t NowNs();

uint64_t Bits(double value);

// Interpolated percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// Samples bucketed by the one-second window of the run they started in
// (see SlowestWindow in driver.h).
class WindowedSamples {
 public:
  static constexpr size_t kAllWindows = static_cast<size_t>(-1);

  void Add(size_t window, double value);
  // Adds other's window w into window offset + min(w, last).
  void Merge(const WindowedSamples& other, size_t offset = 0,
             size_t last = kAllWindows);
  size_t size() const { return size_; }
  std::vector<double> Pooled() const;
  // Quantile q of one window's samples; of all samples when `window` is
  // kAllWindows or holds none.
  double Quantile(double q, size_t window) const;

 private:
  std::vector<std::vector<float>> windows_;
  size_t size_ = 0;
};

// A permutation of 0..n-1 drawn from `seed`.
std::vector<size_t> Shuffled(size_t n, uint64_t seed);

bool WriteFile(const std::string& path, const std::string& text);

// "0-1,3" style list of the CPUs a process may run on (/proc status).
std::string CpusAllowed(int pid);
// VmHWM of a process in MiB (0 when unreadable).
double PeakRssMib(int pid);

// One fixed work item: a tenant KB, its query, and the constants LOAD
// declares.  `marker` is the fact mixed_tcp toggles on the tenant (empty:
// never mutated); `cold_ms` is its cold LOAD+QUERY+DROP cost measured when
// the catalogue was cut (informational).  `request` holds the query's plan
// mode, forced engine, fixed domain size and interval confidence, which
// route some cold_solve items to the strategies the default plan never
// reaches; only those four fields are kept.
struct Item {
  std::string id;
  std::string family;
  std::string kb;
  std::string query;
  std::vector<std::string> declare;
  std::string marker;
  std::vector<std::string> workloads;
  double cold_ms = 0.0;
  rwl::service::RequestOptions request;

  bool In(const std::string& workload) const;
};

// The constant every marker fact is about.  mixed_tcp declares it at LOAD
// so a toggle never extends the vocabulary.
inline constexpr char kMarkerConstant[] = "RwlBenchC";

std::string ItemJson(const Item& item);
bool LoadCatalog(const std::string& path, std::vector<Item>* items,
                 std::string* error);

// How a tenant is loaded when its answer is checked: as warm_read and
// cold_solve load it, as mixed_tcp loads it, or as mixed_tcp loads it
// with the marker asserted.
enum class Variant { kPlain, kMixed, kMixedMarked };

std::vector<std::string> Declares(const Item& item, Variant variant);
std::string ReferenceKey(const Item& item, Variant variant);
// Hash of everything the answer depends on besides the program: KB,
// query, declarations, marker and the service options.  A reference whose
// digest differs was recorded for other inputs and is stale.
std::string Digest(const Item& item, Variant variant);

// The recorded answer of one (item, variant): status, exact value bits and
// the answering method.
struct Reference {
  std::string digest;
  std::string status;
  std::string method;
  uint64_t value = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
};

std::string ReferenceJson(const std::string& key, const Reference& ref);
bool LoadReferences(const std::string& path,
                    std::map<std::string, Reference>* refs,
                    std::string* error);
Reference ReferenceOf(const rwl::Answer& answer, const std::string& digest);

// Bit-identical status, method and value(s).
bool Matches(const rwl::Answer& answer, const Reference& ref);
// The same check on a QUERY response line.  The wire prints doubles with
// fewer digits than a double holds, so a wire value matches when it equals
// the reference exactly or the reference printed the way the wire prints.
bool WireMatches(const rwl::service::Json& response, const Reference& ref);

// The options every workload and every reference use: rwlload's (uniform
// tolerance 0.04, N in {8, 16, 32}) with one scheduler worker.  rwld gets
// the same through `--threads 1 --nmax 32`.
rwl::service::ServiceOptions BenchServiceOptions();

}  // namespace rwbench

#endif  // RWBENCH_COMMON_H_
