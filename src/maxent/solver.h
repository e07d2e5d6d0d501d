// Maximum-entropy solver over the probability simplex with linear
// inequality constraints.
//
// Solves  max H(p) = -Σ p_i ln p_i  subject to  p ∈ Δ,  A p ≤ b,  and
// p_i = 0 outside a support set.  This is the computational core of the
// Section 6 machinery: the space S(KB) of atom-proportion vectors allowed
// by a unary KB is exactly such a polytope, and the random-worlds degrees
// of belief concentrate at its maximum-entropy point as N → ∞.
//
// Algorithm: entropic mirror descent (multiplicative updates, which keep
// the iterate in the relative interior of the simplex automatically) on the
// penalized objective H(p) - λ Σ_j max(0, a_j·p - b_j)², with the penalty
// weight λ escalated geometrically and warm starts between stages.  The
// exterior penalty needs no strictly feasible interior point, so equality
// constraints (paired inequalities with τ = 0) are handled too.
//
// Each stage runs up to `inner_iterations` gradient steps with
// backtracking.  One iterate record (p, its clamped logs, its constraint
// dot products, its entropy) serves the gradient, every backtracking
// candidate and the next stage's objective, and no buffer is allocated
// per step.  A stage ends early at a fixed point: once a step taken at the
// 10.0 step cap leaves p bitwise unchanged, every remaining iteration of
// the stage would repeat it exactly, so they are skipped and counted in
// `iterations` (and in `fixed_point_skips`).
//
// Bit-identity contract: Solve's results (p, entropy, max_violation,
// iterations) are bit-identical to the plain penalty / mirror-descent
// loop that recomputes everything per candidate; tests/maxent_test.cc
// pins them on recorded problems.  That rests on keeping every expression
// in its order: the sums run in index order, 2·λ·v·a_ij multiplies left to
// right, and nothing may be reassociated.  The build sets no -march, so
// the compiler has no FMA to contract into.
#ifndef RWL_MAXENT_SOLVER_H_
#define RWL_MAXENT_SOLVER_H_

#include <string>
#include <vector>

namespace rwl::maxent {

// One inequality: coef · p ≤ bound.
struct LinearConstraint {
  std::vector<double> coef;
  double bound = 0.0;
};

struct Problem {
  int dim = 0;
  // p_i forced to 0 where false; empty means all-true.
  std::vector<bool> support;
  std::vector<LinearConstraint> constraints;
};

struct SolverOptions {
  int penalty_stages = 9;
  double initial_penalty = 10.0;
  double penalty_growth = 10.0;
  int inner_iterations = 400;
  double initial_step = 0.5;
  // Residual constraint violation above this marks the problem infeasible.
  double feasibility_tolerance = 1e-4;
};

struct Solution {
  bool feasible = false;
  std::vector<double> p;
  double entropy = 0.0;
  double max_violation = 0.0;
  // Inner iterations, counting those a fixed-point exit skipped.
  int iterations = 0;
  // The iterations the fixed-point exit skipped (part of `iterations`).
  int fixed_point_skips = 0;
};

// Entropy of a distribution (0 ln 0 = 0).
double Entropy(const std::vector<double>& p);

Solution Solve(const Problem& problem, const SolverOptions& options = {});

}  // namespace rwl::maxent

#endif  // RWL_MAXENT_SOLVER_H_
