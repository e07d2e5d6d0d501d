#include "src/engines/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "src/core/query_context.h"
#include "src/semantics/compile.h"
#include "src/util/thread_pool.h"

namespace rwl::engines {

// The (scale, N) grid points are independent; when a worker pool is
// requested they are all precomputed concurrently and the convergence
// reduction below replays them in schedule order, which makes the result
// identical to the serial sweep (the reduction IS the serial algorithm,
// reading precomputed values).  In serial mode the points are computed
// lazily inside the reduction, exactly like the seed implementation —
// including not evaluating points after an engine-exhausted abort.
LimitResult EstimateLimit(const FiniteEngine& engine, QueryContext& ctx,
                          const logic::FormulaPtr& query,
                          const semantics::ToleranceVector& base_tolerances,
                          const LimitOptions& options) {
  LimitResult result;

  const bool deadline_set = options.deadline.time_since_epoch().count() != 0;
  auto past_deadline = [&] {
    return deadline_set && std::chrono::steady_clock::now() > options.deadline;
  };

  const int num_scales = static_cast<int>(options.tolerance_scales.size());
  const int num_sizes = static_cast<int>(options.domain_sizes.size());

  std::vector<semantics::ToleranceVector> scaled;
  scaled.reserve(num_scales);
  for (double scale : options.tolerance_scales) {
    scaled.push_back(base_tolerances.Scaled(scale));
  }

  // Support is per-N (the engine interface takes no tolerances there).
  std::vector<char> supported(num_sizes);
  for (int d = 0; d < num_sizes; ++d) {
    int n = options.domain_sizes[d];
    supported[d] = engine.Supports(ctx, query, n);
  }

  std::vector<std::optional<FiniteResult>> grid(
      static_cast<size_t>(num_scales) * num_sizes);
  auto compute = [&](int s, int d) {
    return engine.DegreeAt(ctx, query, options.domain_sizes[d], scaled[s]);
  };

  int threads = util::EffectiveThreads(options.num_threads,
                                       num_scales * num_sizes);
  if (threads > 1) {
    std::vector<std::pair<int, int>> work;
    for (int s = 0; s < num_scales; ++s) {
      for (int d = 0; d < num_sizes; ++d) {
        if (supported[d]) work.emplace_back(s, d);
      }
    }
    // Mirror the serial path's early abort: once any point reports the
    // engine exhausted, the reduction discards everything after it, so
    // workers stop starting new points (the reduction computes lazily any
    // skipped point it still needs).
    std::atomic<bool> abort{false};
    util::ParallelFor(threads, static_cast<int>(work.size()), [&](int i) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (past_deadline()) {
        abort.store(true, std::memory_order_relaxed);
        return;
      }
      auto [s, d] = work[i];
      auto& slot = grid[static_cast<size_t>(s) * num_sizes + d];
      slot = compute(s, d);
      if (slot->exhausted) abort.store(true, std::memory_order_relaxed);
    });
  }
  auto result_at = [&](int s, int d) -> const FiniteResult* {
    auto& slot = grid[static_cast<size_t>(s) * num_sizes + d];
    if (!slot.has_value()) {
      // The deadline is checked before a point is computed, never inside
      // one: a sweep overshoots by at most one probe.
      if (past_deadline()) {
        result.deadline_hit = true;
        return nullptr;
      }
      slot = compute(s, d);
    }
    return &*slot;
  };

  // For each tolerance scale, take the largest supported N's value as the
  // N→∞ estimate; then check stability of those estimates as τ shrinks.
  std::vector<double> per_scale_estimates;
  bool engine_exhausted = false;
  bool last_scale_n_converged = false;
  for (int s = 0; s < num_scales; ++s) {
    if (engine_exhausted) break;
    std::optional<double> last_defined;
    bool n_converged = false;
    for (int d = 0; d < num_sizes; ++d) {
      if (!supported[d]) continue;
      const FiniteResult* computed = result_at(s, d);
      if (computed == nullptr) {
        // Deadline: stop evaluating; whatever has been accumulated so far
        // stands (the planner falls back like for an exhausted engine).
        engine_exhausted = true;
        break;
      }
      const FiniteResult& fr = *computed;
      if (fr.exhausted) {
        // The engine hit its work budget: retrying at other tolerance
        // scales can only be slower.  Let the caller fall back.
        engine_exhausted = true;
        result.exhausted = true;
        break;
      }
      SeriesPoint point;
      point.domain_size = options.domain_sizes[d];
      point.tolerance_scale = options.tolerance_scales[s];
      point.probability = fr.probability;
      point.well_defined = fr.well_defined;
      result.series.push_back(point);
      if (!fr.well_defined) continue;
      result.never_defined = false;
      if (last_defined.has_value() &&
          std::fabs(fr.probability - *last_defined) <
              options.convergence_epsilon) {
        n_converged = true;
      }
      last_defined = fr.probability;
    }
    if (last_defined.has_value()) {
      per_scale_estimates.push_back(*last_defined);
      last_scale_n_converged = n_converged;
    }
  }

  if (per_scale_estimates.empty()) return result;

  // Converged when the N-series stabilized at the final τ scale AND the
  // per-τ estimates agree (the two limits of Definition 4.3).
  double final_value = per_scale_estimates.back();
  bool tau_converged = last_scale_n_converged;
  if (per_scale_estimates.size() >= 2) {
    double prev = per_scale_estimates[per_scale_estimates.size() - 2];
    tau_converged = tau_converged &&
                    std::fabs(final_value - prev) <
                        options.convergence_epsilon;
  }
  result.value = final_value;
  // A deadline-truncated schedule must not present its estimate with the
  // confidence of a completed sweep: the τ-stability check (the second
  // limit of Definition 4.3) may not have run.
  result.converged = tau_converged && !result.deadline_hit;
  return result;
}

std::string ToString(const FiniteResult& result) {
  if (result.exhausted) return "exhausted";
  if (!result.well_defined) return "undefined";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "Pr=%.12g (log_num=%.6g log_den=%.6g)",
                result.probability, result.log_numerator,
                result.log_denominator);
  return buf;
}

bool ResultsEquivalent(const FiniteResult& a, ResultClass class_a,
                       const FiniteResult& b, ResultClass class_b,
                       const ResultTolerance& tolerance, std::string* why) {
  auto fail = [&](const std::string& message) {
    if (why != nullptr) {
      *why = message + "  [" + ToString(a) + " vs " + ToString(b) + "]";
    }
    return false;
  };
  if (a.exhausted || b.exhausted) return true;

  const bool a_statistical = class_a == ResultClass::kStatistical;
  const bool b_statistical = class_b == ResultClass::kStatistical;
  if (a.well_defined != b.well_defined) {
    // A statistical engine reporting "undefined" only means its sampler
    // found no accepted worlds; the deterministic side may still know
    // worlds exist.  An estimator that DID accept worlds of a KB the
    // deterministic side proves unsatisfiable has evaluated some formula
    // differently — that is a contradiction, not noise.
    if (!a.well_defined && a_statistical) return true;
    if (!b.well_defined && b_statistical) return true;
    return fail("well-definedness disagrees");
  }
  if (!a.well_defined) return true;

  // Sampling-error allowance: z binomial standard deviations per
  // statistical side, using that side's accepted count (= e^{log #KB
  // worlds}) and the other side's probability as the success rate when it
  // is deterministic.
  double allowed = tolerance.deterministic_epsilon;
  auto statistical_allowance = [&](const FiniteResult& estimate,
                                   const FiniteResult& reference) {
    double accepted = std::exp(estimate.log_denominator);
    if (accepted < 1.0) accepted = 1.0;
    double p = reference.probability;
    double spread = std::sqrt(std::max(p * (1.0 - p), 0.25 / accepted) /
                              accepted);
    return tolerance.statistical_z * spread + tolerance.statistical_floor;
  };
  if (a_statistical) allowed += statistical_allowance(a, b);
  if (b_statistical) allowed += statistical_allowance(b, a);
  if (std::fabs(a.probability - b.probability) > allowed) {
    return fail("probabilities differ by " +
                std::to_string(std::fabs(a.probability - b.probability)) +
                " > allowed " + std::to_string(allowed));
  }
  return true;
}

namespace {

int ExprNestingDepth(const logic::ExprPtr& e);

int FormulaNestingDepth(const logic::FormulaPtr& f) {
  if (f == nullptr) return 0;
  using K = logic::Formula::Kind;
  switch (f->kind()) {
    case K::kTrue:
    case K::kFalse:
    case K::kAtom:
    case K::kEqual:
      return 1;
    case K::kNot:
    case K::kForAll:
    case K::kExists:
      return 1 + FormulaNestingDepth(f->body());
    case K::kAnd:
    case K::kOr:
    case K::kImplies:
    case K::kIff:
      return 1 + std::max(FormulaNestingDepth(f->left()),
                          FormulaNestingDepth(f->right()));
    case K::kCompare:
      return 1 + std::max(ExprNestingDepth(f->expr_left()),
                          ExprNestingDepth(f->expr_right()));
  }
  return 1;
}

int ExprNestingDepth(const logic::ExprPtr& e) {
  if (e == nullptr) return 0;
  using K = logic::Expr::Kind;
  switch (e->kind()) {
    case K::kConstant:
      return 1;
    case K::kProportion:
      return 1 + FormulaNestingDepth(e->body());
    case K::kConditional:
      return 1 + std::max(FormulaNestingDepth(e->body()),
                          FormulaNestingDepth(e->cond()));
    case K::kAdd:
    case K::kSub:
    case K::kMul:
      return 1 + std::max(ExprNestingDepth(e->lhs()),
                          ExprNestingDepth(e->rhs()));
  }
  return 1;
}

int ExprNodeCount(const logic::ExprPtr& e);

int FormulaNodeCount(const logic::FormulaPtr& f) {
  if (f == nullptr) return 0;
  using K = logic::Formula::Kind;
  switch (f->kind()) {
    case K::kTrue:
    case K::kFalse:
      return 1;
    case K::kAtom:
    case K::kEqual:
      return 1 + static_cast<int>(f->terms().size());
    case K::kNot:
    case K::kForAll:
    case K::kExists:
      return 1 + FormulaNodeCount(f->body());
    case K::kAnd:
    case K::kOr:
    case K::kImplies:
    case K::kIff:
      return 1 + FormulaNodeCount(f->left()) + FormulaNodeCount(f->right());
    case K::kCompare:
      return 1 + ExprNodeCount(f->expr_left()) +
             ExprNodeCount(f->expr_right());
  }
  return 1;
}

int ExprNodeCount(const logic::ExprPtr& e) {
  if (e == nullptr) return 0;
  using K = logic::Expr::Kind;
  switch (e->kind()) {
    case K::kConstant:
      return 1;
    case K::kProportion:
      return 1 + FormulaNodeCount(e->body());
    case K::kConditional:
      return 1 + FormulaNodeCount(e->body()) + FormulaNodeCount(e->cond());
    case K::kAdd:
    case K::kSub:
    case K::kMul:
      return 1 + ExprNodeCount(e->lhs()) + ExprNodeCount(e->rhs());
  }
  return 1;
}

}  // namespace

double ApproximateProgramLength(const QueryContext& ctx,
                                const logic::FormulaPtr& f) {
  auto compiled = ctx.CompiledIfCached(f);
  if (compiled != nullptr) {
    semantics::ProgramStats stats = semantics::StatsOf(*compiled);
    if (stats.ok) return static_cast<double>(stats.length);
  }
  // Programs average slightly over one instruction per AST node (loop
  // setup, comparisons); 1.5 keeps the estimate on the same scale.
  return 1.5 * std::max(FormulaNodeCount(f), 1);
}

Capability DescribeInstance(const logic::Vocabulary& vocabulary,
                            const logic::FormulaPtr& query) {
  Capability cap;
  for (const auto& p : vocabulary.predicates()) {
    cap.max_predicate_arity = std::max(cap.max_predicate_arity, p.arity);
  }
  cap.num_constants = static_cast<int>(vocabulary.Constants().size());
  if (vocabulary.IsUnaryRelational() && vocabulary.num_predicates() <= 30) {
    cap.num_atoms = 1 << vocabulary.num_predicates();
  }
  cap.query_depth = FormulaNestingDepth(query);
  return cap;
}

Capability FiniteEngine::AssessCapability(const QueryContext& ctx,
                                          const logic::FormulaPtr& query,
                                          int domain_size) const {
  Capability cap = DescribeInstance(ctx.vocabulary(), query);
  cap.applicable = Supports(ctx, query, domain_size);
  cap.reason = cap.applicable
                   ? "supported at N=" + std::to_string(domain_size)
                   : "outside the engine's structural limits at N=" +
                         std::to_string(domain_size);
  return cap;
}

CostEstimate FiniteEngine::EstimateCost(const QueryContext& ctx,
                                        const logic::FormulaPtr& query,
                                        int domain_size) const {
  (void)ctx;
  (void)query;
  (void)domain_size;
  // Uninformative default: engines without a model rank after engines
  // with one at equal fidelity, never before.
  CostEstimate cost;
  cost.work = 1e9;
  cost.error = result_class() == ResultClass::kStatistical ? 0.05 : 0.0;
  cost.basis = "no engine-specific cost model";
  return cost;
}

FiniteResult FiniteEngine::DegreeAt(
    QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
    const semantics::ToleranceVector& tolerances) const {
  // The reference path: no key to build, nothing to look up or store.
  if (!ctx.caching_enabled()) {
    return DegreeAtInContext(ctx, query, domain_size, tolerances);
  }
  std::string key = name();
  key += '|';
  key += CacheSalt();
  key += '|';
  key += std::to_string(query == nullptr ? 0 : query->id());
  key += '|';
  key += std::to_string(domain_size);
  key += '|';
  key += tolerances.CacheKey();

  FiniteResult cached;
  if (ctx.LookupFinite(key, &cached)) return cached;
  FiniteResult result = DegreeAtInContext(ctx, query, domain_size, tolerances);
  ctx.StoreFinite(key, result);
  return result;
}

}  // namespace rwl::engines
