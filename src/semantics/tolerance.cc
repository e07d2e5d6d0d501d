#include "src/semantics/tolerance.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace rwl::semantics {
namespace {

void AppendBits(double value, std::string* out) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(value)));
  out->append(buf);
}

}  // namespace

ToleranceVector ToleranceVector::Uniform(double value) {
  return ToleranceVector(value);
}

double ToleranceVector::Get(int index) const {
  auto it = overrides_.find(index);
  if (it != overrides_.end()) return it->second;
  return default_value_;
}

void ToleranceVector::Set(int index, double value) {
  overrides_[index] = value;
}

ToleranceVector ToleranceVector::Scaled(double factor) const {
  ToleranceVector out(default_value_ * factor);
  for (const auto& [index, value] : overrides_) {
    out.overrides_[index] = value * factor;
  }
  return out;
}

std::string ToleranceVector::CacheKey() const {
  std::string key;
  AppendBits(default_value_, &key);
  std::vector<std::pair<int, double>> sorted(overrides_.begin(),
                                             overrides_.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [index, value] : sorted) {
    // Overrides equal to the default do not change Get anywhere.
    if (value == default_value_) continue;
    key += ':';
    key += std::to_string(index);
    key += '=';
    AppendBits(value, &key);
  }
  return key;
}

bool CompareValues(double lhs, logic::CompareOp op, double rhs, double tau) {
  using logic::CompareOp;
  switch (op) {
    case CompareOp::kApproxEq:
      return lhs - rhs <= tau && rhs - lhs <= tau;
    case CompareOp::kApproxLeq:
      return lhs - rhs <= tau;
    case CompareOp::kApproxGeq:
      return rhs - lhs <= tau;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kLeq:
      return lhs <= rhs;
    case CompareOp::kGeq:
      return lhs >= rhs;
  }
  return false;
}

}  // namespace rwl::semantics
