// Tolerance vectors ⃗τ = ⟨τ1, τ2, ...⟩ interpreting the approximate
// connectives ≈_i and ⪯_i (Section 4.1).  Each subscript i names its own
// tolerance; the paper uses distinct subscripts for independently-measured
// statistics and identical subscripts to assert equal default strength
// (e.g. the Nixon diamond resolution at the end of Section 5.3).
#ifndef RWL_SEMANTICS_TOLERANCE_H_
#define RWL_SEMANTICS_TOLERANCE_H_

#include <string>
#include <unordered_map>

#include "src/logic/formula.h"

namespace rwl::semantics {

class ToleranceVector {
 public:
  // All tolerances equal to `value` unless overridden.
  static ToleranceVector Uniform(double value);

  ToleranceVector() : default_value_(1e-3) {}
  explicit ToleranceVector(double default_value)
      : default_value_(default_value) {}

  double Get(int index) const;
  void Set(int index, double value);

  double default_value() const { return default_value_; }

  // A copy with every tolerance (default and overrides) scaled by `factor`;
  // used to drive the τ → 0 limit while preserving relative default
  // strengths (Section 5.3: "the magnitude of the tolerance represents the
  // strength of the default").
  ToleranceVector Scaled(double factor) const;

  // An exact (bit-level, sorted) serialization of this vector, used as a
  // component of engine cache keys (core/query_context.h).  Two vectors
  // produce the same key iff Get agrees on every index.
  std::string CacheKey() const;

 private:
  double default_value_;
  std::unordered_map<int, double> overrides_;
};

// Decides `lhs op rhs` under tolerance τ (the scalar for this comparison's
// index): the one comparison judge of the VM, the tree-walking evaluator
// and the maxent and profile engines.
bool CompareValues(double lhs, logic::CompareOp op, double rhs, double tau);

}  // namespace rwl::semantics

#endif  // RWL_SEMANTICS_TOLERANCE_H_
