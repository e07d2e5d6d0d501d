// Inference: the public entry point for computing degrees of belief.
//
// Routes a (KB, query) pair through the registered strategies
// (core/engine_registry.h) under the cost-based planner (core/planner.h):
// the symbolic theorems, the profile and exact sweeps over growing N and
// shrinking τ, the maximum-entropy limit, the defaults family
// (epsilon_semantics, klm, gmp90), Dempster evidence combination, and the
// preemptive fixed-N and calibrated-interval modes.  Every strategy
// estimates the same Pr_∞(φ | KB), so which ones may run is one choice:
// InferenceOptions::strategies.
//
// The answer is a point value or interval together with which method
// produced it and the convergence series (the data behind the paper-style
// convergence figures).
#ifndef RWL_CORE_INFERENCE_H_
#define RWL_CORE_INFERENCE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/engine.h"
#include "src/logic/formula.h"
#include "src/semantics/tolerance.h"

namespace rwl {

struct PlanTrace;  // core/planner.h

// How the planner orders applicable strategies (core/planner.h).
enum class PlanMode {
  // The paper's preference order (symbolic theorems, profile counting,
  // maximum entropy, enumeration): highest-fidelity candidate first, with
  // cost estimates used for capability gating, deadlines and budgets.
  kFidelity,
  // Cheapest predicted applicable candidate first — the service mode for
  // heavy traffic, where every engine estimates the same limit and the
  // planner's job is to spend the least work that yields an answer.
  kMinCost,
};

// The strategies the planner may run, by registered name.  The default
// admits every registered strategy.  Only("gmp90") admits exactly one
// strategy: forcing a strategy (rwlq --engine, the protocol's "engine"
// field) is a set of one.
class StrategySet {
 public:
  static StrategySet Only(std::string name);

  // Admit or withdraw one strategy; both return *this for chaining.
  StrategySet& Add(std::string_view name);
  StrategySet& Remove(std::string_view name);

  bool Contains(std::string_view name) const;

  // The names an Only() set lists, each of which must be registered;
  // empty for sets derived from the default.
  std::span<const std::string> Required() const {
    return only_ ? std::span<const std::string>(names_)
                 : std::span<const std::string>();
  }

  // Canonical encoding (the plan-cache key component): '+' for the listed
  // names only or '-' for all but them, then the sorted names.
  void AppendKey(std::string* key) const;

 private:
  // Puts `name` on or off names_, keeping it sorted.
  StrategySet& List(std::string_view name, bool listed);

  bool only_ = false;
  // Sorted; the members when only_, else the strategies left out.
  std::vector<std::string> names_;
};

struct InferenceOptions {
  // Base tolerance vector (scaled down during the τ → 0 sweep).
  semantics::ToleranceVector tolerances{0.05};
  engines::LimitOptions limit;
  // Which strategies may run (see StrategySet).
  StrategySet strategies;
  // Calibrated-interval mode (conformal-style): a value in (0, 1) asks
  // for an interval answer at confidence 1-δ with δ = 1-interval_confidence:
  // the preemptive `calibrated` strategy sweeps the numeric schedule and
  // returns the empirical quantile interval leaving out at most a δ
  // fraction of the well-defined sweep values (widened to include a
  // symbolic point when one exists).  0 (the default) disables the mode;
  // the differential `coverage` check verifies empirical coverage against
  // ground-truth enumeration over the same schedule.
  double interval_confidence = 0.0;
  // Footnote 9: when the true domain size is known (and small enough to
  // matter), compute Pr_N^τ at exactly this N instead of taking the
  // N → ∞ limit.  0 means unknown (take limits).
  int fixed_domain_size = 0;
  // Share derived state (KB analyses, satisfying-world lists, per-point
  // results) inside a query — and across queries when a batch shares one
  // QueryContext.  Answers are bit-identical either way; disabling is for
  // tests and measurement.
  bool enable_caching = true;

  // ---- Planner controls (core/planner.h) ----

  PlanMode plan_mode = PlanMode::kFidelity;
  // Per-query wall-clock deadline in milliseconds (0 = none).  The planner
  // stops starting candidates once the deadline passes, and sweeps stop
  // between grid points, so a query overshoots by at most one engine
  // probe.  Deadline-limited answers are wall-clock-dependent by nature.
  double deadline_ms = 0.0;
  // Per-candidate predicted-work budget in abstract engine work units
  // (engines::CostEstimate::work; 0 = none): candidates predicted over
  // budget are skipped, recorded in the plan trace.
  double work_budget = 0.0;
};

struct Answer {
  enum class Status {
    kPoint,        // Pr_∞ = value
    kInterval,     // Pr_∞ ∈ [lo, hi]
    kNonexistent,  // the limit provably does not exist
    kUndefined,    // KB not eventually consistent (no worlds)
    kUnknown,      // no engine could decide
  };
  Status status = Status::kUnknown;
  double value = 0.0;
  double lo = 0.0;
  double hi = 1.0;
  std::string method;
  std::string explanation;
  bool converged = false;
  std::vector<engines::SeriesPoint> series;
  // Structured plan trace: strategies assessed/tried, predicted vs
  // observed costs, skips and fallbacks (core/planner.h; rwlq --explain).
  // Shared, immutable; null only for answers produced outside the planner
  // (e.g. parse failures).
  std::shared_ptr<const PlanTrace> plan;
};

// Every form below (DegreeOfBelief, DegreesOfBelief,
// ConditionalDegreeOfBelief) accepts only closed sentences: an open query,
// KB conjunct or evidence formula is answered kUnknown, with an
// explanation naming its free variables (OpenFormulaError), instead of
// reaching the engines.  The query is checked in the context form, which
// the KB forms answer through; the context form assumes its context's KB
// is closed.  The KB forms likewise answer kUnknown, naming the clash
// (logic::SymbolConflict), a query or evidence formula that uses a KB
// symbol at another arity or as another kind; the context form assumes
// its context's vocabulary covers the query.
Answer DegreeOfBelief(const KnowledgeBase& kb, const logic::FormulaPtr& query,
                      const InferenceOptions& options = {});

// Convenience: parses the query from textual syntax.  A parse error is
// answered kUnknown with "query parse error: ..." as the explanation.
Answer DegreeOfBelief(const KnowledgeBase& kb, std::string_view query,
                      const InferenceOptions& options = {});

// Context form: answers against an existing QueryContext (whose vocabulary
// must already cover the query symbols — see MakeQueryContext — and whose
// KB must be a closed sentence).  All
// engine-derived state accumulates in the context, so repeated calls share
// work.
Answer DegreeOfBelief(QueryContext& ctx, const logic::FormulaPtr& query,
                      const InferenceOptions& options = {});

// Builds a context for a batch: one vocabulary covering the KB and every
// query.  Proportions are invariant under vocabulary extension (extra
// constants/predicates multiply world counts uniformly), so answers agree
// with the per-query form whenever the engines' structural limits do.
QueryContext MakeQueryContext(const KnowledgeBase& kb,
                              std::span<const logic::FormulaPtr> queries,
                              const InferenceOptions& options = {});

// Batch inference: answers many queries over one shared context.  Queries
// are deduplicated (hash-consing makes duplicates pointer-equal), and the
// engines reuse each other's per-(N, τ) work — for B queries on one KB the
// expensive world enumerations run once, not B times.  A query that
// introduces symbols beyond the KB's vocabulary is answered in its own
// context (sharing would let it shift the other queries' engine support
// limits), so every answer equals the sequential DegreeOfBelief call.
std::vector<Answer> DegreesOfBelief(const KnowledgeBase& kb,
                                    std::span<const logic::FormulaPtr> queries,
                                    const InferenceOptions& options = {});

// Textual batch form: parses each query; a parse failure yields a
// kUnknown answer carrying the parser message (it does not abort — batch
// callers handle per-query failures).
std::vector<Answer> DegreesOfBelief(const KnowledgeBase& kb,
                                    std::span<const std::string> queries,
                                    const InferenceOptions& options = {});

// True when the query mentions no predicate/function symbol beyond
// `vocabulary` — the condition under which answering through a shared
// KB-level context reproduces the per-query vocabulary exactly.  Used by
// the batch API above and by the service layer's snapshot routing
// (service/catalog.h).
bool QueryCoveredByVocabulary(const logic::Vocabulary& vocabulary,
                              const logic::FormulaPtr& query);

// Pr(φ | KB ∧ ψ): conditioning on additional evidence ψ.  By Proposition
// 5.2, when KB |∼rw ψ this equals Pr(φ | KB); in general it is the degree
// of belief after learning ψ.
Answer ConditionalDegreeOfBelief(const KnowledgeBase& kb,
                                 const logic::FormulaPtr& query,
                                 const logic::FormulaPtr& evidence,
                                 const InferenceOptions& options = {});

// Empty when `formula` is a closed sentence; otherwise "<what> has free
// variables: x y (...)".  The explanation the KB forms above answer an
// open formula with, and the error rwld rejects one with at admission.
std::string OpenFormulaError(const logic::FormulaPtr& formula,
                             std::string_view what);

std::string StatusToString(Answer::Status status);

}  // namespace rwl

#endif  // RWL_CORE_INFERENCE_H_
