// Shared reporting helpers for the timing and gate benches.
//
// Each bench prints a human-readable table and one machine-readable line
// per measured row,
//
//   BENCH_JSON {"bench": "...", ...}
//
// which CI greps into BENCH_<name>.json; tools/bench_gate.py compares
// those files against the baselines in bench/baselines/.
#ifndef RWL_BENCH_BENCH_UTIL_H_
#define RWL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace rwl::bench {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

// One JSON line, built field by field.  Numbers print with enough digits
// to round-trip doubles.
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) {
    Field("bench", bench);
  }

  JsonLine& Field(const std::string& key, const std::string& value) {
    Raw(key, "\"" + JsonEscape(value) + "\"");
    return *this;
  }
  JsonLine& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonLine& Field(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
    return *this;
  }
  JsonLine& Field(const std::string& key, int64_t value) {
    Raw(key, std::to_string(value));
    return *this;
  }
  JsonLine& Field(const std::string& key, int value) {
    return Field(key, static_cast<int64_t>(value));
  }
  JsonLine& Field(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
    return *this;
  }

  // Prints "BENCH_JSON {...}\n".
  void Emit() const {
    std::string line = "BENCH_JSON {";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) line += ", ";
      line += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    line += "}";
    std::printf("%s\n", line.c_str());
  }

 private:
  void Raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

inline void PrintHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

}  // namespace rwl::bench

#endif  // RWL_BENCH_BENCH_UTIL_H_
