#include "src/maxent/solver.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace rwl::maxent {
namespace {

constexpr double kLogFloor = 1e-300;
constexpr double kMaxStep = 10.0;

// One point of the descent with everything the objective, the gradient and
// the mirror step read from it, each computed once: the clamped logs
// ln max(p_i, 1e-300) on the support, the constraint dot products a_j·p
// and the entropy.  Buffers are sized once per Solve and reused.
struct Iterate {
  std::vector<double> p;
  std::vector<double> log_p;
  std::vector<double> dot;
  double entropy = 0.0;

  Iterate(int dim, size_t num_constraints)
      : p(dim, 0.0), log_p(dim, 0.0), dot(num_constraints, 0.0) {}

  // Recomputes log_p, dot and entropy from p.  Entries off the support are
  // 0 and contribute nothing to the entropy; ln v equals the clamped log
  // unless 0 < v < 1e-300.
  void Refresh(const Problem& problem, const std::vector<bool>& support) {
    double h = 0.0;
    for (int i = 0; i < problem.dim; ++i) {
      if (!support[i]) continue;
      const double v = p[i];
      log_p[i] = std::log(std::max(v, kLogFloor));
      if (v > 0) h -= v * (v >= kLogFloor ? log_p[i] : std::log(v));
    }
    entropy = h;
    for (size_t j = 0; j < problem.constraints.size(); ++j) {
      const std::vector<double>& coef = problem.constraints[j].coef;
      double d = 0.0;
      for (int i = 0; i < problem.dim; ++i) d += coef[i] * p[i];
      dot[j] = d;
    }
  }

  // H(p) - λ Σ_j max(0, a_j·p - b_j)².
  double Objective(const Problem& problem, double lambda) const {
    double objective = entropy;
    for (size_t j = 0; j < dot.size(); ++j) {
      const double violation = dot[j] - problem.constraints[j].bound;
      if (violation > 0) objective -= lambda * violation * violation;
    }
    return objective;
  }
};

}  // namespace

double Entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0) h -= v * std::log(v);
  }
  return h;
}

Solution Solve(const Problem& problem, const SolverOptions& options) {
  Solution solution;
  std::vector<bool> support = problem.support;
  if (support.empty()) support.assign(problem.dim, true);
  int support_size = 0;
  for (bool s : support) support_size += s ? 1 : 0;
  if (support_size == 0) return solution;  // infeasible: empty simplex

  const int dim = problem.dim;
  const size_t num_constraints = problem.constraints.size();
  // Uniform start on the support.
  Iterate current(dim, num_constraints);
  for (int i = 0; i < dim; ++i) {
    if (support[i]) current.p[i] = 1.0 / support_size;
  }
  current.Refresh(problem, support);
  Iterate candidate(dim, num_constraints);
  std::vector<double> grad(dim, 0.0);
  std::vector<double> logits(dim, 0.0);

  int iterations = 0;
  int skipped = 0;
  double lambda = options.initial_penalty;
  for (int stage = 0; stage < options.penalty_stages; ++stage) {
    double step = options.initial_step;
    double value_current = current.Objective(problem, lambda);
    for (int it = 0; it < options.inner_iterations; ++it) {
      ++iterations;
      // Gradient of the penalized objective at the current iterate.
      for (int i = 0; i < dim; ++i) {
        if (support[i]) grad[i] = -(1.0 + current.log_p[i]);
      }
      for (size_t j = 0; j < num_constraints; ++j) {
        const double violation = current.dot[j] - problem.constraints[j].bound;
        if (violation > 0) {
          const double scale = 2.0 * lambda * violation;
          const std::vector<double>& coef = problem.constraints[j].coef;
          for (int i = 0; i < dim; ++i) {
            if (support[i]) grad[i] -= scale * coef[i];
          }
        }
      }
      // Backtracking on the mirror step.
      bool improved = false;
      bool fixed_point = false;
      for (int bt = 0; bt < 30; ++bt) {
        // Multiplicative (mirror-descent) step into the candidate.
        double max_lp = -1e18;
        for (int i = 0; i < dim; ++i) {
          if (!support[i]) continue;
          logits[i] = current.log_p[i] + step * grad[i];
          max_lp = std::max(max_lp, logits[i]);
        }
        double total = 0.0;
        for (int i = 0; i < dim; ++i) {
          if (!support[i]) continue;
          candidate.p[i] = std::exp(logits[i] - max_lp);
          total += candidate.p[i];
        }
        for (int i = 0; i < dim; ++i) {
          candidate.p[i] = (support[i] ? candidate.p[i] : 0.0) / total;
        }
        candidate.Refresh(problem, support);
        const double value = candidate.Objective(problem, lambda);
        if (value > value_current - 1e-14) {
          // Accept (allow flat moves to traverse plateaus).
          improved = value > value_current + 1e-12;
          fixed_point = step == kMaxStep &&
                        std::memcmp(candidate.p.data(), current.p.data(),
                                    sizeof(double) * dim) == 0;
          std::swap(current, candidate);
          value_current = value;
          step = std::min(step * 1.25, kMaxStep);
          break;
        }
        step *= 0.5;
        if (step < 1e-12) break;
      }
      if (fixed_point) {
        // Same point, same λ, same capped step: every remaining iteration
        // of this stage would repeat this one exactly.
        skipped += options.inner_iterations - it - 1;
        break;
      }
      if (!improved && step < 1e-10) break;
    }
    lambda *= options.penalty_growth;
  }

  double max_violation = 0.0;
  for (size_t j = 0; j < num_constraints; ++j) {
    const double violation = current.dot[j] - problem.constraints[j].bound;
    if (violation > 0) max_violation = std::max(max_violation, violation);
  }
  solution.p = std::move(current.p);
  solution.entropy = current.entropy;
  solution.max_violation = max_violation;
  solution.iterations = iterations + skipped;
  solution.fixed_point_skips = skipped;
  solution.feasible = max_violation <= options.feasibility_tolerance;
  return solution;
}

}  // namespace rwl::maxent
