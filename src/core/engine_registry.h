// EngineRegistry: the registered inference strategies behind
// DegreeOfBelief, routed by the cost-based planner (core/planner.h).
//
// A strategy wraps one way of answering a query (a theorem engine, a
// finite-N sweep, a closed-form limit, ...) behind a uniform three-way
// contract:
//
//   kFinal   — the answer is finalized, stop,
//   kPartial — the answer was improved (e.g. a sound symbolic interval
//              that a later numeric strategy may sharpen), keep going,
//   kSkip    — the strategy does not apply.
//
// and additionally reports, per (KB, query), a Capability (can it apply at
// all?) and a CostEstimate (how much work would an answer take?).  The
// planner assesses every registered strategy in the options' StrategySet
// (the rest are never assessed), orders the applicable ones —
// by the paper's fidelity preference or by predicted cost — executes under
// the per-query deadline/work budget of InferenceOptions, falls back
// adaptively when an engine exhausts its budget, and caches the plan in
// the QueryContext for repeated traffic.
//
// Registration priority doubles as the fidelity rank: lower priority =
// preferred at equal applicability.  The default registry holds ten
// strategies in the paper's preference order: the preemptive fixed-n
// (footnote 9) and calibrated interval modes, symbolic theorems, profile
// sweep, the defaults family (epsilon_semantics, klm, gmp90), Dempster
// evidence combination, maximum entropy and the exact-enumeration
// fallback.  All of them are deterministic: the paper derives Pr_∞ from
// theorems, maximum entropy and counting, never from sampling (the
// Monte-Carlo engine is a test oracle, src/testing/montecarlo_engine.h).
// Callers may register additional strategies; registration is
// thread-safe.
#ifndef RWL_CORE_ENGINE_REGISTRY_H_
#define RWL_CORE_ENGINE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/inference.h"
#include "src/core/query_context.h"

namespace rwl {

class InferenceStrategy {
 public:
  enum class Outcome {
    kFinal,
    kPartial,
    kSkip,
  };

  virtual ~InferenceStrategy() = default;

  // Stable identifier: StrategySet, the planner's cache entries and the
  // plan trace all refer to strategies by this name.
  virtual std::string name() const = 0;

  // Attempts to answer `query` against the context's KB, reading and
  // updating the accumulated `answer`.
  virtual Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
                      const InferenceOptions& options,
                      Answer* answer) const = 0;

  // ---- Planner hooks (core/planner.h) ----

  // Cheap applicability pre-check: may this strategy produce an answer for
  // this (KB, query) under these options?  Must be a superset of Run's own
  // skip conditions (a strategy assessed applicable may still return kSkip
  // at runtime; the planner falls through).
  virtual engines::Capability Assess(QueryContext& ctx,
                                     const logic::FormulaPtr& query,
                                     const InferenceOptions& options) const = 0;

  // Predicted work/accuracy of running this strategy to completion (sweep
  // strategies aggregate their engine's per-point estimates over the
  // (N, ⃗τ) schedule).  Called only on strategies assessed applicable.
  virtual engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& options) const = 0;

  // Preemptive strategies run before every other candidate regardless of
  // cost ordering (fixed-N: a known domain size replaces limit taking).
  virtual bool preemptive() const { return false; }
};

class EngineRegistry {
 public:
  // The process-wide registry, pre-seeded with the built-in strategies.
  static EngineRegistry& Default();

  // An empty registry (for tests and custom pipelines).
  EngineRegistry() = default;

  // Lower priority ranks earlier in fidelity order; equal priorities rank
  // in registration order.
  void Register(int priority,
                std::shared_ptr<const InferenceStrategy> strategy);

  // Strategies in fidelity (registration-priority) order.
  std::vector<std::shared_ptr<const InferenceStrategy>> Ordered() const;

  // The strategy registered under `name`, or null.
  std::shared_ptr<const InferenceStrategy> Find(const std::string& name)
      const;

  // Plans and executes: assesses capability and cost of every registered
  // strategy in options.strategies, orders candidates (paper preference or
  // predicted cost), honors options.deadline_ms / work_budget, reuses
  // cached plans from the context, and attaches a structured plan trace to
  // the answer.  A partial interval survives as the fallback answer, otherwise
  // kUnknown.
  Answer Infer(QueryContext& ctx, const logic::FormulaPtr& query,
               const InferenceOptions& options) const;

 private:
  mutable std::mutex mutex_;
  std::multimap<int, std::shared_ptr<const InferenceStrategy>> strategies_;
};

}  // namespace rwl

#endif  // RWL_CORE_ENGINE_REGISTRY_H_
