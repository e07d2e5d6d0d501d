// Maximum-entropy engine: the N → ∞ limit for unary KBs (Section 6).
//
// The random-worlds distribution over atom-proportion vectors concentrates
// (at rate e^{N·H}) on the maximum-entropy point ⃗p* of the constraint space
// S(KB).  Degrees of belief therefore follow from ⃗p* directly:
//
//   Pr_∞(φ(c) | KB)  =  S_{φ∩ψ}(⃗p*) / S_ψ(⃗p*)
//
// where ψ is the conjunction of the KB's class facts about c, and
//
//   Pr_∞(θ | KB) ∈ {0, 1}
//
// for constant-free proportion assertions θ according to whether θ holds at
// ⃗p*.  The τ → 0 limit is taken by re-solving on a decreasing tolerance
// schedule and checking stability.
//
// Like the finite engines (engines/engine.h), the engine is reached only
// through a QueryContext; a cache-free context is the reference path.
#ifndef RWL_ENGINES_MAXENT_ENGINE_H_
#define RWL_ENGINES_MAXENT_ENGINE_H_

#include <string>
#include <vector>

#include "src/engines/engine.h"
#include "src/logic/formula.h"
#include "src/logic/vocabulary.h"
#include "src/semantics/tolerance.h"

namespace rwl {
class QueryContext;
}  // namespace rwl

namespace rwl::engines {

class MaxEntEngine {
 public:
  struct Result {
    bool supported = false;   // KB/query outside the unary fragment
    bool feasible = false;    // S(KB) empty at this tolerance
    double value = 0.0;       // the degree of belief
    std::vector<double> atom_probabilities;  // ⃗p* (diagnostics)
    std::string note;
  };

  struct LimitResultME {
    bool supported = false;
    bool converged = false;
    double value = 0.0;
    std::vector<double> per_scale_values;
    std::string note;
  };

  // Degree of belief with the tolerances fixed at ⃗τ.  The KB extraction
  // and the entropy solve depend only on (KB, ⃗τ): a caching context keeps
  // them and shares them across every query of a batch, so only the cheap
  // query-conditioning part runs per query.  A cache-free context solves
  // per call (the reference path; the solver is deterministic, so the two
  // agree bit for bit).  atom_probabilities carries the maxent point ⃗p*.
  Result InferAt(QueryContext& ctx, const logic::FormulaPtr& query,
                 const semantics::ToleranceVector& tolerances) const;

  // lim_{τ→0}: solve on a schedule of scaled tolerance vectors.
  LimitResultME InferLimit(QueryContext& ctx, const logic::FormulaPtr& query,
                           const semantics::ToleranceVector& base_tolerances,
                           const std::vector<double>& scales = {1.0, 0.3,
                                                                0.1}) const;

  // Planner hooks.  Applicability is the unary fragment (the linear-
  // fragment check happens inside the solve); predicted work is the
  // entropy optimization over 2^k atom proportions per tolerance scale.
  Capability Assess(const QueryContext& ctx,
                    const logic::FormulaPtr& query) const;
  CostEstimate EstimateCost(const QueryContext& ctx,
                            const logic::FormulaPtr& query) const;
};

}  // namespace rwl::engines

#endif  // RWL_ENGINES_MAXENT_ENGINE_H_
