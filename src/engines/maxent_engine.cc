#include "src/engines/maxent_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "src/core/query_context.h"
#include "src/logic/classalg.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/maxent/constraints.h"
#include "src/maxent/solver.h"
#include "src/semantics/evaluator.h"

namespace rwl::engines {
namespace {

using logic::AtomSet;
using logic::ClassUniverse;
using logic::Expr;
using logic::ExprPtr;
using logic::Formula;
using logic::FormulaPtr;

// Evaluates a constant-free comparison formula at the maxent point.
// Returns nullopt when the query is outside the supported fragment.
std::optional<bool> EvaluateAtPoint(const ClassUniverse& universe,
                                    const FormulaPtr& query,
                                    const std::vector<double>& p,
                                    const semantics::ToleranceVector& tol) {
  switch (query->kind()) {
    case Formula::Kind::kCompare: {
      auto eval_expr = [&](const ExprPtr& e,
                           auto&& self) -> std::optional<double> {
        switch (e->kind()) {
          case Expr::Kind::kConstant:
            return e->value();
          case Expr::Kind::kProportion:
          case Expr::Kind::kConditional: {
            if (e->vars().size() != 1) return std::nullopt;
            logic::TermPtr subject = logic::Term::Variable(e->vars()[0]);
            auto body = CompileClass(universe, e->body(), subject);
            if (!body) return std::nullopt;
            double num = rwl::maxent::MassOf(*body, p);
            if (e->kind() == Expr::Kind::kProportion) return num;
            auto cond = CompileClass(universe, e->cond(), subject);
            if (!cond) return std::nullopt;
            double den = rwl::maxent::MassOf(*cond, p);
            double joint = rwl::maxent::MassOf(body->Intersect(*cond), p);
            if (den <= 0.0) return std::nullopt;  // 0/0: defer to caller
            return joint / den;
          }
          case Expr::Kind::kAdd:
          case Expr::Kind::kSub:
          case Expr::Kind::kMul: {
            auto lhs = self(e->lhs(), self);
            auto rhs = self(e->rhs(), self);
            if (!lhs || !rhs) return std::nullopt;
            if (e->kind() == Expr::Kind::kAdd) return *lhs + *rhs;
            if (e->kind() == Expr::Kind::kSub) return *lhs - *rhs;
            return *lhs * *rhs;
          }
        }
        return std::nullopt;
      };
      auto lhs = eval_expr(query->expr_left(), eval_expr);
      auto rhs = eval_expr(query->expr_right(), eval_expr);
      if (!lhs || !rhs) return std::nullopt;
      double tau = tol.Get(query->tolerance_index());
      return semantics::CompareValues(*lhs, query->compare_op(), *rhs, tau);
    }
    case Formula::Kind::kNot: {
      auto inner = EvaluateAtPoint(universe, query->body(), p, tol);
      if (!inner) return std::nullopt;
      return !*inner;
    }
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      auto lhs = EvaluateAtPoint(universe, query->left(), p, tol);
      auto rhs = EvaluateAtPoint(universe, query->right(), p, tol);
      if (!lhs || !rhs) return std::nullopt;
      return query->kind() == Formula::Kind::kAnd ? (*lhs && *rhs)
                                                  : (*lhs || *rhs);
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

// The (KB, ⃗τ)-dependent half of InferAt: extraction + entropy solve.
// Cached in caching contexts (see InferAt).
struct SolvedKb {
  rwl::maxent::ExtractedKb extracted;
  rwl::maxent::Solution solution;
};

namespace {

SolvedKb ExtractAndSolve(const logic::Vocabulary& vocabulary,
                         const logic::FormulaPtr& kb,
                         const semantics::ToleranceVector& tolerances) {
  SolvedKb solved;
  solved.extracted = rwl::maxent::ExtractUnaryKb(vocabulary, kb, tolerances);
  if (solved.extracted.ok) {
    solved.solution = rwl::maxent::Solve(solved.extracted.problem);
  }
  return solved;
}

// The query-dependent half: conditioning at the maxent point.
MaxEntEngine::Result InferAtSolved(const SolvedKb& solved,
                                   const logic::FormulaPtr& query,
                                   const semantics::ToleranceVector&
                                       tolerances) {
  MaxEntEngine::Result result;
  const auto& extracted = solved.extracted;
  const auto& solution = solved.solution;
  if (!extracted.ok) {
    result.note = extracted.error;
    return result;
  }
  ClassUniverse universe(extracted.predicates);
  if (!solution.feasible) {
    result.supported = true;
    result.note = "S(KB) empty (KB not eventually consistent at this τ)";
    return result;
  }
  result.atom_probabilities = solution.p;

  // Query forms, in order of preference:
  // (a) conjunction of class literals about constants → product of
  //     conditional masses at p*;
  // (b) constant-free comparison formula → 1/0 by truth at p*.
  std::set<std::string> query_constants = logic::ConstantsOf(query);
  if (!query_constants.empty()) {
    // Decompose the query into per-constant class formulas: conjuncts about
    // the same constant intersect (they constrain one element's atom);
    // distinct constants are asymptotically independent (Theorem 5.27), so
    // their conditional masses multiply.
    std::map<std::string, AtomSet> per_constant;
    for (const auto& conjunct : logic::Conjuncts(query)) {
      std::set<std::string> cs = logic::ConstantsOf(conjunct);
      if (cs.size() != 1) {
        result.note = "query conjunct not about a single constant: " +
                      logic::ToString(conjunct);
        return result;
      }
      const std::string& c = *cs.begin();
      auto cls = CompileClass(universe, conjunct,
                              logic::Term::Constant(c));
      if (!cls.has_value()) {
        result.note = "query conjunct outside the class fragment: " +
                      logic::ToString(conjunct);
        return result;
      }
      auto [it, inserted] = per_constant.emplace(c, *cls);
      if (!inserted) it->second = it->second.Intersect(*cls);
    }
    double value = 1.0;
    for (const auto& [c, cls] : per_constant) {
      AtomSet facts = AtomSet::All(universe);
      auto it = extracted.constant_facts.find(c);
      if (it != extracted.constant_facts.end()) facts = it->second;
      double denominator = rwl::maxent::MassOf(facts, solution.p);
      if (denominator <= 0.0) {
        result.supported = true;
        result.note = "facts about '" + c +
                      "' have vanishing probability at the maxent point";
        return result;
      }
      double numerator = rwl::maxent::MassOf(cls.Intersect(facts),
                                             solution.p);
      value *= numerator / denominator;
    }
    result.supported = true;
    result.feasible = true;
    result.value = value;
    return result;
  }

  auto truth = EvaluateAtPoint(universe, query, solution.p, tolerances);
  if (!truth.has_value()) {
    result.note = "query outside the maxent fragment: " +
                  logic::ToString(query);
    return result;
  }
  result.supported = true;
  result.feasible = true;
  result.value = *truth ? 1.0 : 0.0;
  return result;
}

}  // namespace

MaxEntEngine::Result MaxEntEngine::InferAt(
    QueryContext& ctx, const logic::FormulaPtr& query,
    const semantics::ToleranceVector& tolerances) const {
  std::string key = "maxent.solved|" + tolerances.CacheKey();
  auto solved =
      std::static_pointer_cast<const SolvedKb>(ctx.LookupBlob(key));
  if (solved == nullptr) {
    auto computed = std::make_shared<SolvedKb>(
        ExtractAndSolve(ctx.vocabulary(), ctx.kb(), tolerances));
    ctx.StoreBlob(key, computed);
    solved = std::move(computed);
  }
  return InferAtSolved(*solved, query, tolerances);
}

MaxEntEngine::LimitResultME MaxEntEngine::InferLimit(
    QueryContext& ctx, const logic::FormulaPtr& query,
    const semantics::ToleranceVector& base_tolerances,
    const std::vector<double>& scales) const {
  LimitResultME result;
  for (double scale : scales) {
    Result at = InferAt(ctx, query, base_tolerances.Scaled(scale));
    if (!at.supported || !at.feasible) {
      result.note = at.note;
      return result;
    }
    result.per_scale_values.push_back(at.value);
  }
  result.supported = true;
  result.value = result.per_scale_values.back();
  result.converged = true;
  if (result.per_scale_values.size() >= 2) {
    double prev =
        result.per_scale_values[result.per_scale_values.size() - 2];
    result.converged = std::fabs(result.value - prev) < 2e-2;
  }
  return result;
}

CostEstimate MaxEntEngine::EstimateCost(const QueryContext& ctx,
                                        const logic::FormulaPtr& query) const {
  (void)query;
  CostEstimate cost;
  const int k = std::min(ctx.vocabulary().num_predicates(), 30);
  const double atoms = std::exp2(static_cast<double>(k));
  // Iterative entropy maximization over the atom simplex, re-solved per
  // tolerance scale of InferLimit's own τ → 0 schedule (its default
  // three scales — the solve does not follow the sweep engines'
  // LimitOptions schedule).  The per-atom weight is
  // calibrated against the profile engine's leaf-evaluation unit: one
  // solve costs hundreds of projected-gradient iterations with
  // exponential updates per atom, which measures ~10^4-10^5 profile-leaf
  // equivalents per atom — so the solve only wins once the sweep's leaf
  // count outgrows it (wide vocabularies, large N), matching observed
  // wall time.
  cost.work = atoms * 3.0e4 * 3.0;
  cost.error = 0.0;  // the true N → ∞ limit, solved to tolerance
  cost.basis = "entropy solve over " +
               std::to_string(static_cast<long long>(atoms)) +
               " atoms x 3 tolerance scales";
  return cost;
}

}  // namespace rwl::engines
