#include "src/defaults/klm.h"

#include <cmath>
#include <sstream>

#include "src/core/query_context.h"

namespace rwl::defaults {
namespace {

using logic::Formula;
using logic::FormulaPtr;

struct Pr {
  bool defined = false;
  double value = 0.0;
};

Pr Probability(const KlmContext& ctx, const FormulaPtr& kb,
               const FormulaPtr& query) {
  // Cache-free: the KB changes from call to call.
  QueryContext kb_ctx(*ctx.vocabulary, kb, /*caching_enabled=*/false);
  engines::FiniteResult fr = ctx.engine->DegreeAt(
      kb_ctx, query, ctx.domain_size, ctx.tolerances);
  Pr out;
  out.defined = fr.well_defined;
  out.value = fr.probability;
  return out;
}

bool Entails(const KlmContext& ctx, const Pr& p) {
  return p.defined && p.value >= ctx.threshold;
}

std::string Detail(const char* rule, double a, double b) {
  std::ostringstream out;
  out << rule << ": " << a << " vs " << b;
  return out.str();
}

}  // namespace

KlmCheck CheckAnd(const KlmContext& ctx, const FormulaPtr& kb,
                  const FormulaPtr& phi, const FormulaPtr& psi) {
  KlmCheck check;
  Pr p_phi = Probability(ctx, kb, phi);
  Pr p_psi = Probability(ctx, kb, psi);
  if (!Entails(ctx, p_phi) || !Entails(ctx, p_psi)) return check;
  check.applicable = true;
  Pr p_and = Probability(ctx, kb, Formula::And(phi, psi));
  // Union bound: Pr(φ∧ψ) ≥ Pr(φ) + Pr(ψ) - 1.
  double lower = p_phi.value + p_psi.value - 1.0;
  check.holds = p_and.defined &&
                p_and.value >= lower - ctx.probability_epsilon &&
                p_and.value >= ctx.threshold - (1.0 - p_phi.value) -
                                   (1.0 - p_psi.value) -
                                   ctx.probability_epsilon;
  check.detail = Detail("And", p_and.value, lower);
  return check;
}

KlmCheck CheckOr(const KlmContext& ctx, const FormulaPtr& kb,
                 const FormulaPtr& kb2, const FormulaPtr& phi) {
  KlmCheck check;
  Pr p1 = Probability(ctx, kb, phi);
  Pr p2 = Probability(ctx, kb2, phi);
  if (!Entails(ctx, p1) || !Entails(ctx, p2)) return check;
  check.applicable = true;
  Pr p_or = Probability(ctx, Formula::Or(kb, kb2), phi);
  // The Or proof (Theorem 5.3): Pr(¬φ|KB∨KB') ≤ Pr(¬φ|KB) + Pr(¬φ|KB').
  double not_bound = (1.0 - p1.value) + (1.0 - p2.value);
  check.holds = p_or.defined &&
                (1.0 - p_or.value) <= not_bound + ctx.probability_epsilon;
  check.detail = Detail("Or", 1.0 - p_or.value, not_bound);
  return check;
}

KlmCheck CheckCut(const KlmContext& ctx, const FormulaPtr& kb,
                  const FormulaPtr& theta, const FormulaPtr& phi) {
  KlmCheck check;
  Pr p_theta = Probability(ctx, kb, theta);
  if (!Entails(ctx, p_theta)) return check;
  FormulaPtr kb_theta = Formula::And(kb, theta);
  Pr p_phi_given_both = Probability(ctx, kb_theta, phi);
  if (!Entails(ctx, p_phi_given_both)) return check;
  check.applicable = true;
  Pr p_phi = Probability(ctx, kb, phi);
  // Pr(φ|KB) ≥ Pr(φ|KB∧θ)·Pr(θ|KB).
  double lower = p_phi_given_both.value * p_theta.value;
  check.holds =
      p_phi.defined && p_phi.value >= lower - ctx.probability_epsilon;
  check.detail = Detail("Cut", p_phi.value, lower);
  return check;
}

KlmCheck CheckCautiousMonotonicity(const KlmContext& ctx,
                                   const FormulaPtr& kb,
                                   const FormulaPtr& theta,
                                   const FormulaPtr& phi) {
  KlmCheck check;
  Pr p_theta = Probability(ctx, kb, theta);
  Pr p_phi = Probability(ctx, kb, phi);
  if (!Entails(ctx, p_theta) || !Entails(ctx, p_phi)) return check;
  check.applicable = true;
  Pr p_cond = Probability(ctx, Formula::And(kb, theta), phi);
  // Pr(φ|KB∧θ) ≥ 1 - (1-Pr(φ|KB))/Pr(θ|KB).
  double lower = 1.0 - (1.0 - p_phi.value) / p_theta.value;
  check.holds =
      p_cond.defined && p_cond.value >= lower - ctx.probability_epsilon;
  check.detail = Detail("CautiousMonotonicity", p_cond.value, lower);
  return check;
}

KlmCheck CheckRightWeakeningMonotone(const KlmContext& ctx,
                                     const FormulaPtr& kb,
                                     const FormulaPtr& phi,
                                     const FormulaPtr& psi) {
  KlmCheck check;
  Pr p_phi = Probability(ctx, kb, phi);
  if (!p_phi.defined) return check;
  check.applicable = true;
  Pr p_weaker = Probability(ctx, kb, Formula::Or(phi, psi));
  check.holds = p_weaker.defined &&
                p_weaker.value >= p_phi.value - ctx.probability_epsilon;
  check.detail = Detail("RightWeakening", p_weaker.value, p_phi.value);
  return check;
}

KlmCheck CheckReflexivity(const KlmContext& ctx, const FormulaPtr& kb) {
  KlmCheck check;
  Pr p = Probability(ctx, kb, kb);
  if (!p.defined) return check;  // KB unsatisfiable at this (N, τ)
  check.applicable = true;
  check.holds = p.value >= 1.0 - ctx.probability_epsilon;
  check.detail = Detail("Reflexivity", p.value, 1.0);
  return check;
}

KlmCheck CheckRationalMonotonicityBound(const KlmContext& ctx,
                                        const FormulaPtr& kb,
                                        const FormulaPtr& theta,
                                        const FormulaPtr& phi) {
  KlmCheck check;
  Pr p_theta = Probability(ctx, kb, theta);
  if (!p_theta.defined || p_theta.value <= 0.0) return check;
  Pr p_not_phi = Probability(ctx, kb, Formula::Not(phi));
  if (!p_not_phi.defined) return check;
  check.applicable = true;
  Pr p_cond = Probability(ctx, Formula::And(kb, theta),
                          Formula::Not(phi));
  double bound = p_not_phi.value / p_theta.value;
  check.holds = p_cond.defined &&
                p_cond.value <= bound + ctx.probability_epsilon;
  check.detail = Detail("RationalMonotonicity", p_cond.value, bound);
  return check;
}

KlmCheck CheckConditioningIdentity(const KlmContext& ctx,
                                   const FormulaPtr& kb,
                                   const FormulaPtr& theta,
                                   const FormulaPtr& phi) {
  KlmCheck check;
  Pr p_theta = Probability(ctx, kb, theta);
  if (!p_theta.defined || p_theta.value < 1.0 - ctx.probability_epsilon) {
    return check;
  }
  check.applicable = true;
  Pr lhs = Probability(ctx, kb, phi);
  Pr rhs = Probability(ctx, Formula::And(kb, theta), phi);
  check.holds = lhs.defined && rhs.defined &&
                std::fabs(lhs.value - rhs.value) <= 1e-9;
  check.detail = Detail("Conditioning", lhs.value, rhs.value);
  return check;
}

}  // namespace rwl::defaults
