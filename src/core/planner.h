// The cost-based query planner behind EngineRegistry::Infer.
//
// For each query the planner:
//
//   1. assesses the Capability of every registered strategy in
//      InferenceOptions::strategies (does it apply to
//      this (KB, query) at all?) and CostEstimate (predicted work and
//      accuracy, derived from the KB analyses cached in the QueryContext:
//      profile leaf counts, world-odometer size, compiled-program length),
//   2. orders the applicable candidates — paper preference order
//      (PlanMode::kFidelity, the default) or cheapest-predicted-first
//      (PlanMode::kMinCost, the service mode),
//   3. caches the plan in the QueryContext keyed by (KB signature, query
//      shape, N schedule, ⃗τ, strategy set, planner options), so batch
//      and repeated traffic skips assessment and scoring entirely — a
//      cache hit
//      executes the identical candidate order, so its answers are
//      bit-identical to a cold plan,
//   4. executes candidates in order under the per-query deadline / work
//      budget of InferenceOptions, falling back adaptively when an engine
//      exhausts its budget or a sweep is cut short, and
//   5. attaches a structured PlanTrace to the Answer (strategies tried,
//      predicted vs observed costs, skips, fallbacks) — the data behind
//      rwlq --explain and the --json "plan" field.
//
// The plan is advisory: every strategy still validates its own
// applicability when run (a candidate may return kSkip), so a plan cached
// for one query shape stays sound for every query of that shape.
#ifndef RWL_CORE_PLANNER_H_
#define RWL_CORE_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine_registry.h"
#include "src/core/inference.h"
#include "src/core/query_context.h"
#include "src/engines/engine.h"
#include "src/logic/formula.h"

namespace rwl {

// One assessed candidate of a plan, in planned order.
struct PlanStep {
  std::string strategy;
  engines::Capability capability;
  engines::CostEstimate predicted;
  // Preemptive candidates (fixed-N) define the semantics of the query —
  // they are pinned first and exempt from deadline/budget substitution
  // (answering a Pr_N question with a cheaper engine's Pr_∞ would be a
  // silent change of question, not a fallback).
  bool preemptive = false;

  enum class Action {
    kRan,                  // executed; see `outcome` / `observed_ms`
    kSkippedInapplicable,  // capability said no
    kSkippedBudget,        // predicted work over options.work_budget
    kSkippedDeadline,      // deadline passed before this candidate started
    kNotReached,           // an earlier candidate finalized the answer
  };
  Action action = Action::kNotReached;
  // When kRan: "final", "partial" (answer improved, fell through) or
  // "skip" (runtime self-check declined).
  std::string outcome;
  double observed_ms = 0.0;
};

// The structured trace attached to every planner answer.
struct PlanTrace {
  std::vector<PlanStep> steps;  // in planned (execution) order
  // "fidelity" or "cost".
  std::string mode;
  bool from_cache = false;   // plan order came from the context's cache
  // The whole answer came from the snapshot's answer memo
  // (service/catalog.h): no step ran, `steps` is empty, and total_ms is
  // the memo hit's own time.  Implies from_cache.
  bool from_memo = false;
  bool deadline_hit = false;  // the deadline cut planning or execution short
  double planning_ms = 0.0;  // assessment + scoring (0 on cache hits)
  double total_ms = 0.0;     // planning + execution wall time
  uint64_t shape_fingerprint = 0;
};

// Structural fingerprint of a query with constant names abstracted away:
// Hep(Eric) and Hep(Tom) share a fingerprint — and therefore a cached
// plan — while Hep(Eric) ∧ Jaun(Eric) does not.
uint64_t PlanShapeFingerprint(const logic::FormulaPtr& query);

// Appends an exact encoding of every option that can change a plan or an
// answer: plan mode, the N and τ schedules, convergence epsilon, base
// tolerances, strategy set, interval confidence, fixed domain size and
// work budget.  Left out are the deadline (a deadline-cut answer is never
// reused; see QueryContext::StoreAnswer) and the knobs answers are
// bit-identical under (enable_caching, limit.num_threads).  The plan cache
// and the service's answer memo (service/catalog.h) both key on it.
void AppendOptionsKey(const InferenceOptions& options, std::string* key);

// Multi-line EXPLAIN rendering (rwlq --explain).
std::string FormatPlanTrace(const PlanTrace& trace);

// Plans and executes one query.  Called by EngineRegistry::Infer; exposed
// for the planner tests and bench_planner.
Answer PlanAndExecute(const EngineRegistry& registry, QueryContext& ctx,
                      const logic::FormulaPtr& query,
                      const InferenceOptions& options);

}  // namespace rwl

#endif  // RWL_CORE_PLANNER_H_
