// Engine interface: computing Pr_N^τ(φ | KB) and estimating the
// random-worlds limit Pr_∞ (Definition 4.3).
//
// A FiniteEngine computes the degree of belief at a *fixed* domain size N
// and tolerance vector ⃗τ.  EstimateLimit drives a FiniteEngine over a
// schedule of growing N and shrinking τ (lim_{τ→0} lim_{N→∞}, in that
// order: for each τ scale the N-limit is estimated first) and reports the
// common limit when the series converges.
//
// Both take a QueryContext (core/query_context.h), the one way into an
// engine: it pins the (vocabulary, KB) pair and holds the caches.  A context
// with caching disabled is the reference computation the caching path is
// compared against in tests and benches.
#ifndef RWL_ENGINES_ENGINE_H_
#define RWL_ENGINES_ENGINE_H_

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "src/logic/formula.h"
#include "src/logic/vocabulary.h"
#include "src/semantics/tolerance.h"

namespace rwl {
class QueryContext;
}  // namespace rwl

namespace rwl::engines {

// Pr_N^τ(φ | KB), plus diagnostics.
struct FiniteResult {
  // False when #worlds(KB) == 0 (degree of belief undefined at this N) or
  // when the engine gave up (see `exhausted`).
  bool well_defined = false;
  double probability = 0.0;
  // log #worlds(KB ∧ φ) and log #worlds(KB).
  double log_numerator = 0.0;
  double log_denominator = 0.0;
  // True when a work budget was hit before the computation finished; the
  // probability is then meaningless.
  bool exhausted = false;
};

// How a differential comparator must treat an engine's results.
// Deterministic engines compute the same definitional quantity and must
// agree to within numerical round-off; statistical estimators carry
// sampling error proportional to 1/sqrt(accepted), where the accepted
// count is recoverable as exp(log_denominator).
enum class ResultClass {
  kDeterministic,
  kStatistical,
};

// Human-readable one-liner for differential-test diagnostics.
std::string ToString(const FiniteResult& result);

// ---- Planner contract (core/planner.h) ----
//
// Every engine reports, per (KB, query) pair, whether it applies at all
// (Capability) and a prediction of how much work an answer would take and
// how accurate it would be (CostEstimate).  The planner scores candidate
// strategies from these instead of trying engines in a hard-coded order.

// Applicability of an engine on one (KB, query) pair.  Derived from the KB
// analyses cached in QueryContext where possible, so assessment is cheap
// enough to run per query.
struct Capability {
  bool applicable = false;
  // Why not (or under what caps), for --list-engines / EXPLAIN output.
  std::string reason;
};

// Predicted work and accuracy of running an engine on one (KB, query)
// pair.  `work` is in abstract units — roughly one compiled-program
// evaluation of one world — comparable across engines; `error` is the
// expected |Pr̂ - Pr| of the produced answer (0 for exact engines).
struct CostEstimate {
  double work = 0.0;
  double error = 0.0;
  // What the prediction was derived from (leaf counts, world-odometer
  // size, program length, acceptance-rate estimate, ...).
  std::string basis;
};

// Per-world evaluation cost proxy for the planner's models: the compiled
// program's instruction count when the context already holds the program
// (semantics/compile.h via QueryContext::CompiledIfCached), otherwise a
// structural node count — planning must stay far cheaper than the
// cheapest engine, so cost models never trigger compilation themselves.
double ApproximateProgramLength(const QueryContext& ctx,
                                const logic::FormulaPtr& f);

// Tolerance spec for ResultsEquivalent.
struct ResultTolerance {
  // Allowed |Δprobability| between two deterministic results.
  double deterministic_epsilon = 1e-9;
  // Statistical results are allowed z standard deviations of binomial
  // sampling error (computed from the deterministic side's probability
  // when available), plus the floor below.
  double statistical_z = 6.0;
  double statistical_floor = 5e-3;
};

// Tolerance-aware equivalence of two Pr_N^τ results computed by different
// engines on the SAME (KB, query, N, ⃗τ).  Exhausted results compare as
// equivalent to anything (no information).  Well-definedness must agree —
// except that a statistical engine may fail to accept samples on a
// satisfiable KB (a sampling drought, not a bug); the converse (samples
// accepted from a KB a deterministic engine proves unsatisfiable) is a
// genuine contradiction.  On mismatch returns false and describes the
// failure in *why (may be null).
bool ResultsEquivalent(const FiniteResult& a, ResultClass class_a,
                       const FiniteResult& b, ResultClass class_b,
                       const ResultTolerance& tolerance, std::string* why);

class FiniteEngine {
 public:
  virtual ~FiniteEngine() = default;

  virtual std::string name() const = 0;

  // The single way in: Pr_N^τ(query | ctx.kb()) at domain size N.  The
  // context's vocabulary must cover the query.  With caching enabled the
  // result is memoized under an exact (engine, options, query id, N, ⃗τ)
  // key, and engine subclasses share KB-level work across queries through
  // DegreeAtInContext.  A context built with caching_enabled = false is the
  // reference path: nothing is looked up or stored, every call recomputes
  // from scratch, and the cached path must match it bit for bit (the caches
  // only store what the cache-free path computes, in the same order).
  FiniteResult DegreeAt(QueryContext& ctx, const logic::FormulaPtr& query,
                        int domain_size,
                        const semantics::ToleranceVector& tolerances) const;

  // True when this engine can evaluate (ctx.kb(), query) at domain size N
  // within its structural limits (vocabulary fragment, cost caps).
  virtual bool Supports(const QueryContext& ctx,
                        const logic::FormulaPtr& query,
                        int domain_size) const = 0;

  // Extra key material for engines whose options change results (priors,
  // sample counts, budgets, ...).
  virtual std::string CacheSalt() const { return ""; }

  // Comparison hook for differential testing (see ResultsEquivalent):
  // engines whose results carry sampling error override to kStatistical.
  virtual ResultClass result_class() const {
    return ResultClass::kDeterministic;
  }

 protected:
  // The engine's computation behind DegreeAt (no memo layer).  Must honor
  // ctx.caching_enabled(): with caching off it records and replays nothing.
  virtual FiniteResult DegreeAtInContext(
      QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
      const semantics::ToleranceVector& tolerances) const = 0;
};

// One evaluated point of the limit sweep.
struct SeriesPoint {
  int domain_size = 0;
  double tolerance_scale = 1.0;
  double probability = 0.0;
  bool well_defined = false;
};

struct LimitOptions {
  // Domain sizes per tolerance scale, increasing.
  std::vector<int> domain_sizes = {8, 16, 24, 32, 48, 64};
  // Multiplicative scales applied to the base tolerance vector, decreasing.
  std::vector<double> tolerance_scales = {1.0, 0.5, 0.25};
  // |last - previous| below this counts as converged.
  double convergence_epsilon = 5e-3;
  // Worker-pool size for evaluating the (N, τ-scale) grid: the points are
  // independent, so they are computed concurrently and the convergence
  // reduction replays them in schedule order (the result is identical to
  // the serial sweep, point for point).  1 = serial; 0 = one worker per
  // hardware thread.
  int num_threads = 1;
  // Per-query deadline (epoch time_point{} = none).  Checked between grid
  // points, never inside one, so a sweep overshoots the deadline by at
  // most one DegreeAt probe; points past the deadline are not evaluated
  // and the sweep reports deadline_hit.  Deadline-limited results are
  // inherently wall-clock-dependent — the planner treats them like an
  // exhausted engine and falls back.
  std::chrono::steady_clock::time_point deadline{};
};

struct LimitResult {
  // The estimated Pr_∞, when the sweep stabilized.
  std::optional<double> value;
  bool converged = false;
  // True when Pr_N^τ was undefined at every evaluated point (KB not
  // eventually consistent as far as the sweep can see).
  bool never_defined = true;
  // True when the sweep stopped early because the engine hit its work
  // budget (FiniteResult::exhausted) — the planner's cue to fall back.
  bool exhausted = false;
  // True when LimitOptions::deadline cut the sweep short.
  bool deadline_hit = false;
  std::vector<SeriesPoint> series;
};

// Sweeps the engine over the (τ scale, N) grid through `ctx`: caching
// contexts share their caches across points and queries, and the grid is
// evaluated on a worker pool when options.num_threads != 1 —
// point-for-point identical to the serial sweep.
LimitResult EstimateLimit(const FiniteEngine& engine, QueryContext& ctx,
                          const logic::FormulaPtr& query,
                          const semantics::ToleranceVector& base_tolerances,
                          const LimitOptions& options);

}  // namespace rwl::engines

#endif  // RWL_ENGINES_ENGINE_H_
