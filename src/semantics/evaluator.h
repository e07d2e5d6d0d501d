// Truth evaluation of L≈ formulas in finite worlds (Section 4.1 semantics).
//
// (W, V, ⃗τ) |= χ: predicates and functions are interpreted by the world,
// variables by the valuation, the approximate connectives by the tolerance
// vector.  Proportion terms are computed by exhaustive tuple counting.
//
// This recursive tree-walker is the REFERENCE implementation: the engines'
// hot paths run the compiled bytecode pipeline (compile.h + vm.h) instead,
// and the walker serves as the oracle it is differentially tested against
// (tests/compiled_vm_test.cc, the fuzzer's `vm` check).  Keep the two in
// lockstep when changing the semantics.
//
// Conditional proportions ||ψ | θ||_X are primitives.  A comparison formula
// in which some conditional proportion has an empty condition (||θ||_X = 0)
// is TRUE by convention — this matches the multiply-out-after-splitting
// translation into L= of Section 4.1 (the two sides of "ζ - ζ' ≤ ε_i" are
// multiplied by the nonnegative denominator, turning "0/0 ≤ anything" into
// "0 ≤ 0").  Example 4.2's pitfall (multiplying out *before* splitting) is
// avoided because the ratio itself is evaluated exactly when the denominator
// is nonzero.
#ifndef RWL_SEMANTICS_EVALUATOR_H_
#define RWL_SEMANTICS_EVALUATOR_H_

#include <map>
#include <string>

#include "src/logic/formula.h"
#include "src/semantics/tolerance.h"
#include "src/semantics/world.h"

namespace rwl::semantics {

// Variable valuation V: X → domain.
using Valuation = std::map<std::string, int>;

// Value of a proportion expression; `defined == false` propagates a 0/0
// conditional proportion up to the nearest comparison (which then holds).
struct ExprValue {
  double value = 0.0;
  bool defined = true;
};

// Evaluates a closed or open formula; free variables must be bound by the
// valuation.  Unknown symbols or unbound variables abort (programming
// error).
bool Evaluate(const logic::FormulaPtr& f, const World& world,
              const ToleranceVector& tolerances, Valuation* valuation);

// Convenience overload for sentences.
bool Evaluate(const logic::FormulaPtr& f, const World& world,
              const ToleranceVector& tolerances);

ExprValue EvaluateExpr(const logic::ExprPtr& e, const World& world,
                       const ToleranceVector& tolerances,
                       Valuation* valuation);

// Evaluates a term to a domain element.
int EvaluateTerm(const logic::TermPtr& t, const World& world,
                 Valuation* valuation);

}  // namespace rwl::semantics

#endif  // RWL_SEMANTICS_EVALUATOR_H_
