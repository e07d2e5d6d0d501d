#include "rwbench/common.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>

namespace rwbench {

using rwl::service::Json;
using rwl::service::JsonEscape;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

int64_t ToNs(Clock::time_point time) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             time.time_since_epoch())
      .count();
}

int64_t NowNs() { return ToNs(Clock::now()); }

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double index = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(index);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

void WindowedSamples::Add(size_t window, double value) {
  if (window >= windows_.size()) windows_.resize(window + 1);
  windows_[window].push_back(static_cast<float>(value));
  ++size_;
}

void WindowedSamples::Merge(const WindowedSamples& other, size_t offset,
                            size_t last) {
  for (size_t w = 0; w < other.windows_.size(); ++w) {
    const size_t target = offset + std::min(w, last);
    if (target >= windows_.size()) windows_.resize(target + 1);
    windows_[target].insert(windows_[target].end(), other.windows_[w].begin(),
                            other.windows_[w].end());
  }
  size_ += other.size_;
}

std::vector<double> WindowedSamples::Pooled() const {
  std::vector<double> all;
  all.reserve(size_);
  for (const auto& window : windows_) all.insert(all.end(), window.begin(), window.end());
  return all;
}

double WindowedSamples::Quantile(double q, size_t window) const {
  if (window >= windows_.size() || windows_[window].empty()) {
    return Percentile(Pooled(), q);
  }
  return Percentile(
      std::vector<double>(windows_[window].begin(), windows_[window].end()), q);
}

std::vector<size_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

namespace {

double FromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

// The value of a "Key:   value" line of /proc/<pid>/status.
std::string StatusField(int pid, const std::string& key) {
  std::string text;
  const std::string path =
      pid > 0 ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
  if (!ReadFile(path, &text)) return "";
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::string value = line.substr(key.size() + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    return value;
  }
  return "";
}

std::string StringField(const Json& json, const char* key) {
  const Json* field = json.Find(key);
  return field != nullptr && field->type == Json::Type::kString ? field->string
                                                                 : "";
}

std::vector<std::string> StringList(const Json& json, const char* key) {
  std::vector<std::string> out;
  const Json* field = json.Find(key);
  if (field == nullptr || field->type != Json::Type::kArray) return out;
  for (const Json& item : field->items) {
    if (item.type == Json::Type::kString) out.push_back(item.string);
  }
  return out;
}

std::string JsonList(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(values[i]) + "\"";
  }
  return out + "]";
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// Reads the JSON lines of `path` into objects; false on the first bad line.
bool LoadJsonLines(const std::string& path, std::vector<Json>* out,
                   std::string* error) {
  std::string text;
  if (!ReadFile(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  int number = 0;
  while (std::getline(lines, line)) {
    ++number;
    if (line.empty()) continue;
    Json json;
    std::string parse_error;
    if (!rwl::service::ParseJson(line, &json, &parse_error) ||
        json.type != Json::Type::kObject) {
      *error = path + ":" + std::to_string(number) + ": " + parse_error;
      return false;
    }
    out->push_back(std::move(json));
  }
  return true;
}

bool WireNumberMatches(const Json* field, uint64_t ref_bits) {
  if (field == nullptr || field->type != Json::Type::kNumber) return false;
  if (Bits(field->number) == ref_bits) return true;
  char printed[40];
  std::snprintf(printed, sizeof(printed), "%.9g", FromBits(ref_bits));
  return Bits(std::strtod(printed, nullptr)) == Bits(field->number);
}

// The item's non-default request options as "key=value;" pairs (empty for
// a default request).
std::string RequestText(const rwl::service::RequestOptions& request) {
  std::string text;
  if (!request.plan.empty()) text += "plan=" + request.plan + ";";
  if (!request.engine.empty()) text += "engine=" + request.engine + ";";
  if (request.fixed_domain_size > 0) {
    text += "fixed_n=" + std::to_string(request.fixed_domain_size) + ";";
  }
  if (request.interval_confidence > 0) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "interval=%.17g;",
                  request.interval_confidence);
    text += buf;
  }
  return text;
}

}  // namespace

std::string CpusAllowed(int pid) { return StatusField(pid, "Cpus_allowed_list"); }

double PeakRssMib(int pid) {
  const std::string value = StatusField(pid, "VmHWM");  // "12345 kB"
  return value.empty() ? 0.0 : std::strtod(value.c_str(), nullptr) / 1024.0;
}

bool Item::In(const std::string& workload) const {
  return std::find(workloads.begin(), workloads.end(), workload) !=
         workloads.end();
}

std::string ItemJson(const Item& item) {
  char cost[40];
  std::snprintf(cost, sizeof(cost), "%.3f", item.cold_ms);
  std::string request;
  const rwl::service::RequestOptions& r = item.request;
  if (!r.plan.empty()) request += ",\"plan\":\"" + JsonEscape(r.plan) + "\"";
  if (!r.engine.empty()) {
    request += ",\"engine\":\"" + JsonEscape(r.engine) + "\"";
  }
  if (r.fixed_domain_size > 0) {
    request += ",\"fixed_n\":" + std::to_string(r.fixed_domain_size);
  }
  if (r.interval_confidence > 0) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), ",\"interval\":%.17g",
                  r.interval_confidence);
    request += buf;
  }
  return "{\"id\":\"" + JsonEscape(item.id) + "\",\"family\":\"" +
         JsonEscape(item.family) + "\",\"kb\":\"" + JsonEscape(item.kb) +
         "\",\"query\":\"" + JsonEscape(item.query) +
         "\",\"declare\":" + JsonList(item.declare) + ",\"marker\":\"" +
         JsonEscape(item.marker) + "\",\"workloads\":" +
         JsonList(item.workloads) + request + ",\"cold_ms\":" + cost + "}";
}

bool LoadCatalog(const std::string& path, std::vector<Item>* items,
                 std::string* error) {
  std::vector<Json> lines;
  if (!LoadJsonLines(path, &lines, error)) return false;
  for (const Json& json : lines) {
    Item item;
    item.id = StringField(json, "id");
    item.family = StringField(json, "family");
    item.kb = StringField(json, "kb");
    item.query = StringField(json, "query");
    item.declare = StringList(json, "declare");
    item.marker = StringField(json, "marker");
    item.workloads = StringList(json, "workloads");
    if (const Json* cost = json.Find("cold_ms")) item.cold_ms = cost->number;
    item.request.plan = StringField(json, "plan");
    item.request.engine = StringField(json, "engine");
    if (const Json* n = json.Find("fixed_n")) {
      item.request.fixed_domain_size = static_cast<int>(n->number);
    }
    if (const Json* conf = json.Find("interval")) {
      item.request.interval_confidence = conf->number;
    }
    if (item.id.empty() || item.query.empty()) {
      *error = path + ": item without id or query";
      return false;
    }
    items->push_back(std::move(item));
  }
  return true;
}

std::vector<std::string> Declares(const Item& item, Variant variant) {
  std::vector<std::string> declare = item.declare;
  if (variant != Variant::kPlain && !item.marker.empty()) {
    declare.push_back(kMarkerConstant);
  }
  return declare;
}

std::string ReferenceKey(const Item& item, Variant variant) {
  switch (variant) {
    case Variant::kPlain:
      return item.id;
    case Variant::kMixed:
      return item.id + "@mixed";
    case Variant::kMixedMarked:
      return item.id + "@mixed+marker";
  }
  return item.id;
}

std::string Digest(const Item& item, Variant variant) {
  std::string text = "tau=0.04;n=8,16,32\x1f" + item.kb + "\x1f" +
                     item.query + "\x1f";
  for (const std::string& name : Declares(item, variant)) text += name + ",";
  if (variant == Variant::kMixedMarked) text += "\x1f" + item.marker;
  const std::string request = RequestText(item.request);
  if (!request.empty()) text += "\x1f" + request;
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return Hex(hash);
}

std::string ReferenceJson(const std::string& key, const Reference& ref) {
  return "{\"key\":\"" + JsonEscape(key) + "\",\"digest\":\"" + ref.digest +
         "\",\"status\":\"" + ref.status + "\",\"value\":\"" +
         Hex(ref.value) + "\",\"lo\":\"" + Hex(ref.lo) + "\",\"hi\":\"" +
         Hex(ref.hi) + "\",\"method\":\"" + JsonEscape(ref.method) + "\"}";
}

bool LoadReferences(const std::string& path,
                    std::map<std::string, Reference>* refs,
                    std::string* error) {
  std::vector<Json> lines;
  if (!LoadJsonLines(path, &lines, error)) return false;
  for (const Json& json : lines) {
    Reference ref;
    ref.digest = StringField(json, "digest");
    ref.status = StringField(json, "status");
    ref.method = StringField(json, "method");
    ref.value = std::strtoull(StringField(json, "value").c_str(), nullptr, 16);
    ref.lo = std::strtoull(StringField(json, "lo").c_str(), nullptr, 16);
    ref.hi = std::strtoull(StringField(json, "hi").c_str(), nullptr, 16);
    (*refs)[StringField(json, "key")] = std::move(ref);
  }
  return true;
}

Reference ReferenceOf(const rwl::Answer& answer, const std::string& digest) {
  Reference ref;
  ref.digest = digest;
  ref.status = rwl::StatusToString(answer.status);
  ref.method = answer.method;
  if (answer.status == rwl::Answer::Status::kPoint) {
    ref.value = Bits(answer.value);
  } else if (answer.status == rwl::Answer::Status::kInterval) {
    ref.lo = Bits(answer.lo);
    ref.hi = Bits(answer.hi);
  }
  return ref;
}

bool Matches(const rwl::Answer& answer, const Reference& ref) {
  if (rwl::StatusToString(answer.status) != ref.status ||
      answer.method != ref.method) {
    return false;
  }
  if (answer.status == rwl::Answer::Status::kPoint) {
    return Bits(answer.value) == ref.value;
  }
  if (answer.status == rwl::Answer::Status::kInterval) {
    return Bits(answer.lo) == ref.lo && Bits(answer.hi) == ref.hi;
  }
  return true;
}

bool WireMatches(const Json& response, const Reference& ref) {
  const Json* ok = response.Find("ok");
  if (ok == nullptr || ok->type != Json::Type::kBool || !ok->boolean) {
    return false;
  }
  if (StringField(response, "status") != ref.status ||
      StringField(response, "method") != ref.method) {
    return false;
  }
  if (ref.status == "point") {
    return WireNumberMatches(response.Find("value"), ref.value);
  }
  if (ref.status == "interval") {
    return WireNumberMatches(response.Find("lo"), ref.lo) &&
           WireNumberMatches(response.Find("hi"), ref.hi);
  }
  return true;
}

rwl::service::ServiceOptions BenchServiceOptions() {
  rwl::service::ServiceOptions options;
  options.scheduler.num_threads = 1;
  options.inference.tolerances =
      rwl::semantics::ToleranceVector::Uniform(0.04);
  options.inference.limit.domain_sizes = {8, 16, 32};
  return options;
}

}  // namespace rwbench
