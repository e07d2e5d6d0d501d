// A deliberately broken FiniteEngine decorator, used to validate that the
// differential harness actually catches and shrinks engine bugs (the
// fuzzer's --self-test and tests/differential_test.cc).
//
// The decorator delegates everything to the wrapped engine but skews the
// probability whenever the query contains a disjunction — a predicate the
// shrinker cannot remove without losing the failure, so minimized
// reproducers keep exactly one small Or-query.  The skew (+0.05, mirrored
// near 1) has no fixed point in [0, 1], so every triggered result really
// changes.
#ifndef RWL_TESTING_BUGGY_ENGINE_H_
#define RWL_TESTING_BUGGY_ENGINE_H_

#include <string>

#include "src/engines/engine.h"

namespace rwl::testing {

// True when the formula tree contains a kOr node.
bool ContainsOr(const logic::FormulaPtr& f);

class SkewOnOrEngine : public engines::FiniteEngine {
 public:
  // Does not own `inner`; the caller keeps it alive.
  explicit SkewOnOrEngine(const engines::FiniteEngine* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name() + "+skew"; }

  bool Supports(const QueryContext& ctx, const logic::FormulaPtr& query,
                int domain_size) const override {
    return inner_->Supports(ctx, query, domain_size);
  }

  std::string CacheSalt() const override {
    return inner_->CacheSalt() + ";skew-on-or";
  }

  engines::ResultClass result_class() const override {
    return inner_->result_class();
  }

 protected:
  engines::FiniteResult DegreeAtInContext(
      QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
      const semantics::ToleranceVector& tolerances) const override {
    engines::FiniteResult result =
        inner_->DegreeAt(ctx, query, domain_size, tolerances);
    if (result.well_defined && !result.exhausted && ContainsOr(query)) {
      result.probability = result.probability <= 0.9
                               ? result.probability + 0.05
                               : result.probability - 0.05;
    }
    return result;
  }

 private:
  const engines::FiniteEngine* inner_;
};

}  // namespace rwl::testing

#endif  // RWL_TESTING_BUGGY_ENGINE_H_
