#include "src/core/planner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "src/logic/intern.h"
#include "src/logic/term.h"

namespace rwl {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- query shape fingerprint ----
//
// A structural hash with constant names erased: plans depend on the shape
// of the query (connectives, proportion structure, predicate symbols),
// not on which individual it mentions — Hep(Eric) and Hep(Tom) cost the
// same to answer and share a plan.  Built on the interner's combinators
// (logic/intern.h).

uint64_t Mix(uint64_t h, uint64_t v) {
  return logic::HashCombine(h, v);
}

uint64_t HashString(const std::string& s) {
  return std::hash<std::string>{}(s);
}

uint64_t HashTerm(const logic::TermPtr& t) {
  if (t == nullptr) return 0;
  if (t->is_variable()) return Mix(1, HashString(t->name()));
  if (t->is_constant()) return 2;  // every constant hashes alike
  uint64_t h = Mix(3, HashString(t->name()));
  for (const auto& arg : t->args()) h = Mix(h, HashTerm(arg));
  return h;
}

uint64_t HashFormulaShape(const logic::FormulaPtr& f);

uint64_t HashExprShape(const logic::ExprPtr& e) {
  if (e == nullptr) return 0;
  uint64_t h = Mix(101, static_cast<uint64_t>(e->kind()));
  switch (e->kind()) {
    case logic::Expr::Kind::kConstant: {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double));
      double v = e->value();
      __builtin_memcpy(&bits, &v, sizeof(bits));
      return Mix(h, bits);
    }
    case logic::Expr::Kind::kProportion:
    case logic::Expr::Kind::kConditional:
      h = Mix(h, HashFormulaShape(e->body()));
      h = Mix(h, HashFormulaShape(e->cond()));
      for (const auto& var : e->vars()) h = Mix(h, HashString(var));
      return h;
    case logic::Expr::Kind::kAdd:
    case logic::Expr::Kind::kSub:
    case logic::Expr::Kind::kMul:
      h = Mix(h, HashExprShape(e->lhs()));
      return Mix(h, HashExprShape(e->rhs()));
  }
  return h;
}

uint64_t HashFormulaShape(const logic::FormulaPtr& f) {
  if (f == nullptr) return 0;
  uint64_t h = Mix(201, static_cast<uint64_t>(f->kind()));
  using K = logic::Formula::Kind;
  switch (f->kind()) {
    case K::kTrue:
    case K::kFalse:
      return h;
    case K::kAtom:
      h = Mix(h, HashString(f->predicate()));
      for (const auto& t : f->terms()) h = Mix(h, HashTerm(t));
      return h;
    case K::kEqual:
      for (const auto& t : f->terms()) h = Mix(h, HashTerm(t));
      return h;
    case K::kNot:
      return Mix(h, HashFormulaShape(f->body()));
    case K::kAnd:
    case K::kOr:
    case K::kImplies:
    case K::kIff:
      h = Mix(h, HashFormulaShape(f->left()));
      return Mix(h, HashFormulaShape(f->right()));
    case K::kForAll:
    case K::kExists:
      h = Mix(h, HashString(f->var()));
      return Mix(h, HashFormulaShape(f->body()));
    case K::kCompare:
      h = Mix(h, static_cast<uint64_t>(f->compare_op()));
      h = Mix(h, static_cast<uint64_t>(f->tolerance_index()));
      h = Mix(h, HashExprShape(f->expr_left()));
      return Mix(h, HashExprShape(f->expr_right()));
  }
  return h;
}

// The capability reason of a strategy outside InferenceOptions::strategies.
constexpr char kNotInSet[] = "not in the strategy set";

// ---- plan cache ----

// Fixed-width fields go into keys as raw bytes: exact, and no formatting
// on the service's per-request path.
template <typename T>
void AppendRaw(const T& value, std::string* key) {
  key->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// The cached artifact: the assessed candidate list in execution order.
// Capability and cost ride along so cache hits render the same EXPLAIN
// output without re-assessing.
struct CachedPlan {
  std::vector<PlanStep> steps;
};

std::string PlanCacheKey(const InferenceOptions& options, uint64_t shape,
                         uint64_t registry_fingerprint) {
  // No KB component: QueryContext::StoreBlob/LookupBlob transparently
  // qualify every key with the context's version_salt() (KB formula id +
  // vocabulary fingerprint), which is what keeps an adopted plan from
  // surviving a KB mutation or a signature change.
  std::string key = "planner.plan|";
  AppendRaw(registry_fingerprint, &key);
  AppendRaw(shape, &key);
  AppendOptionsKey(options, &key);
  return key;
}

std::string OutcomeName(InferenceStrategy::Outcome outcome) {
  switch (outcome) {
    case InferenceStrategy::Outcome::kFinal:
      return "final";
    case InferenceStrategy::Outcome::kPartial:
      return "partial";
    case InferenceStrategy::Outcome::kSkip:
      return "skip";
  }
  return "?";
}

// Builds the planned candidate list: every registered strategy in the
// strategy set assessed and costed, applicable candidates first in the
// mode's order (preemptive strategies pinned to the front), inapplicable
// and out-of-set ones kept at the tail for the trace.
std::vector<PlanStep> BuildPlan(
    const std::vector<std::shared_ptr<const InferenceStrategy>>& strategies,
    QueryContext& ctx, const logic::FormulaPtr& query,
    const InferenceOptions& options) {
  struct Assessed {
    PlanStep step;
    size_t rank = 0;  // registration (fidelity) order
  };
  std::vector<Assessed> assessed;
  assessed.reserve(strategies.size());
  for (size_t i = 0; i < strategies.size(); ++i) {
    const auto& strategy = strategies[i];
    Assessed a;
    a.step.strategy = strategy->name();
    if (!options.strategies.Contains(a.step.strategy)) {
      a.step.capability.reason = kNotInSet;
    } else {
      a.step.capability = strategy->Assess(ctx, query, options);
      if (a.step.capability.applicable) {
        a.step.predicted = strategy->EstimateCost(ctx, query, options);
      }
    }
    a.step.preemptive = strategy->preemptive();
    a.rank = i;
    assessed.push_back(std::move(a));
  }

  std::stable_sort(assessed.begin(), assessed.end(),
                   [&](const Assessed& x, const Assessed& y) {
                     auto bucket = [&](const Assessed& a) {
                       if (!a.step.capability.applicable) return 2;
                       return a.step.preemptive ? 0 : 1;
                     };
                     int bx = bucket(x);
                     int by = bucket(y);
                     if (bx != by) return bx < by;
                     if (bx == 1 && options.plan_mode == PlanMode::kMinCost &&
                         x.step.predicted.work != y.step.predicted.work) {
                       return x.step.predicted.work < y.step.predicted.work;
                     }
                     return x.rank < y.rank;
                   });

  std::vector<PlanStep> steps;
  steps.reserve(assessed.size());
  for (auto& a : assessed) {
    if (!a.step.capability.applicable) {
      a.step.action = PlanStep::Action::kSkippedInapplicable;
    }
    steps.push_back(std::move(a.step));
  }
  return steps;
}

void FinalizeAnswer(Answer* answer, bool deadline_hit,
                    const std::vector<PlanStep>& steps) {
  // Mirrors the pre-planner pipeline: a sound symbolic interval survives
  // as the answer; otherwise the query is unanswered.
  if (answer->status == Answer::Status::kInterval) return;
  answer->status = Answer::Status::kUnknown;
  if (!answer->explanation.empty()) return;
  const bool budget_skips =
      std::any_of(steps.begin(), steps.end(), [](const PlanStep& step) {
        return step.action == PlanStep::Action::kSkippedBudget;
      });
  if (deadline_hit) {
    answer->explanation =
        "deadline exhausted before any engine produced an answer";
  } else if (budget_skips) {
    answer->explanation =
        "every applicable engine was predicted over the work budget";
  } else {
    // Say why each strategy in the set declined.
    answer->explanation = "no engine applies to this (KB, query) pair";
    for (const PlanStep& step : steps) {
      if (step.action == PlanStep::Action::kSkippedInapplicable &&
          step.capability.reason != kNotInSet) {
        answer->explanation +=
            "; " + step.strategy + ": " + step.capability.reason;
      }
    }
  }
}

}  // namespace

void AppendOptionsKey(const InferenceOptions& options, std::string* key) {
  key->push_back(options.plan_mode == PlanMode::kMinCost ? 'c' : 'f');
  AppendRaw(options.limit.domain_sizes.size(), key);
  for (int n : options.limit.domain_sizes) AppendRaw(n, key);
  AppendRaw(options.limit.tolerance_scales.size(), key);
  for (double s : options.limit.tolerance_scales) AppendRaw(s, key);
  AppendRaw(options.limit.convergence_epsilon, key);
  AppendRaw(options.interval_confidence, key);
  AppendRaw(options.fixed_domain_size, key);
  AppendRaw(options.work_budget, key);
  // The two variable-length parts last, '|'-separated (neither encoding
  // contains '|').
  *key += options.tolerances.CacheKey();
  key->push_back('|');
  options.strategies.AppendKey(key);
}

uint64_t PlanShapeFingerprint(const logic::FormulaPtr& query) {
  return HashFormulaShape(query);
}

std::string FormatPlanTrace(const PlanTrace& trace) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "plan: mode=%s source=%s shape=%016llx planning=%.3fms "
                "total=%.3fms%s\n",
                trace.mode.c_str(),
                trace.from_memo ? "memo" : trace.from_cache ? "cache" : "cold",
                static_cast<unsigned long long>(trace.shape_fingerprint),
                trace.planning_ms, trace.total_ms,
                trace.deadline_hit ? " [deadline hit]" : "");
  out += buf;
  int position = 0;
  for (const PlanStep& step : trace.steps) {
    ++position;
    std::string status;
    switch (step.action) {
      case PlanStep::Action::kRan:
        std::snprintf(buf, sizeof(buf), "%-7s %8.3fms",
                      step.outcome.c_str(), step.observed_ms);
        status = buf;
        break;
      case PlanStep::Action::kSkippedInapplicable:
        status = "inapplicable: " + step.capability.reason;
        break;
      case PlanStep::Action::kSkippedBudget:
        status = "skipped: predicted work over budget";
        break;
      case PlanStep::Action::kSkippedDeadline:
        status = "skipped: deadline";
        break;
      case PlanStep::Action::kNotReached:
        status = "not reached";
        break;
    }
    std::snprintf(buf, sizeof(buf), "  %d. %-11s %s\n", position,
                  step.strategy.c_str(), status.c_str());
    out += buf;
    if (step.capability.applicable) {
      std::snprintf(buf, sizeof(buf),
                    "       predicted work=%.3g err=%.3g  (%s)\n",
                    step.predicted.work, step.predicted.error,
                    step.predicted.basis.c_str());
      out += buf;
    }
  }
  return out;
}

Answer PlanAndExecute(const EngineRegistry& registry, QueryContext& ctx,
                      const logic::FormulaPtr& query,
                      const InferenceOptions& options) {
  const Clock::time_point start = Clock::now();
  Answer answer;
  auto trace = std::make_shared<PlanTrace>();
  trace->shape_fingerprint = PlanShapeFingerprint(query);

  // ---- plan (or fetch the cached plan) ----
  trace->mode =
      options.plan_mode == PlanMode::kMinCost ? "cost" : "fidelity";
  const std::vector<std::shared_ptr<const InferenceStrategy>> strategies =
      registry.Ordered();
  for (const std::string& name : options.strategies.Required()) {
    if (registry.Find(name) == nullptr) {
      answer.explanation = "no strategy named '" + name + "' is registered";
      answer.plan = trace;
      return answer;
    }
  }
  // Plans cache per registry composition: two registries sharing one
  // context (tests, custom pipelines) must not replay each other's plans.
  uint64_t registry_fingerprint = 0;
  for (const auto& strategy : strategies) {
    registry_fingerprint =
        Mix(registry_fingerprint, HashString(strategy->name()));
  }
  const std::string cache_key = PlanCacheKey(
      options, trace->shape_fingerprint, registry_fingerprint);
  std::shared_ptr<const CachedPlan> cached =
      std::static_pointer_cast<const CachedPlan>(ctx.LookupBlob(cache_key));
  std::vector<PlanStep> steps;
  if (cached != nullptr) {
    trace->from_cache = true;
    steps = cached->steps;
  } else {
    steps = BuildPlan(strategies, ctx, query, options);
    trace->planning_ms = MillisSince(start);
    auto to_store = std::make_shared<CachedPlan>();
    to_store->steps = steps;
    size_t bytes = 64;
    for (const PlanStep& step : steps) {
      bytes += sizeof(PlanStep) + step.strategy.size() +
               step.capability.reason.size() + step.predicted.basis.size();
    }
    ctx.StoreBlob(cache_key, std::move(to_store), bytes);
  }

  // ---- execute under deadline / work budget ----
  const bool deadline_set = options.deadline_ms > 0.0;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      options.deadline_ms));
  InferenceOptions step_options = options;
  if (deadline_set) step_options.limit.deadline = deadline;

  bool ran_any = false;
  bool finalized = false;
  // Index of the one candidate allowed to start after the deadline when
  // nothing has run yet (the cheapest remaining): a late planner still
  // answers cheap queries, and the overshoot is bounded by that single
  // probe.
  std::optional<size_t> late_only;
  for (size_t i = 0; i < steps.size(); ++i) {
    PlanStep& step = steps[i];
    if (!step.capability.applicable) {
      step.action = PlanStep::Action::kSkippedInapplicable;
      continue;
    }
    if (finalized) {
      step.action = PlanStep::Action::kNotReached;
      continue;
    }
    // Preemptive candidates (fixed-N) ARE the question: skipping one for
    // a cheaper limit engine would silently answer Pr_∞ where Pr_N was
    // asked.  They run regardless of deadline/budget — a single probe,
    // so the overshoot stays bounded.
    if (!step.preemptive && options.work_budget > 0.0 &&
        step.predicted.work > options.work_budget) {
      step.action = PlanStep::Action::kSkippedBudget;
      continue;
    }
    if (!step.preemptive && deadline_set && Clock::now() > deadline) {
      trace->deadline_hit = true;
      if (ran_any) {
        step.action = PlanStep::Action::kSkippedDeadline;
        continue;
      }
      if (!late_only.has_value()) {
        size_t best = i;
        double best_work = std::numeric_limits<double>::infinity();
        for (size_t j = i; j < steps.size(); ++j) {
          const PlanStep& candidate = steps[j];
          if (!candidate.capability.applicable) continue;
          if (options.work_budget > 0.0 &&
              candidate.predicted.work > options.work_budget) {
            continue;
          }
          if (candidate.predicted.work < best_work) {
            best_work = candidate.predicted.work;
            best = j;
          }
        }
        late_only = best;
      }
      if (i != *late_only) {
        step.action = PlanStep::Action::kSkippedDeadline;
        continue;
      }
    }

    const InferenceStrategy* strategy = nullptr;
    for (const auto& candidate : strategies) {
      if (candidate->name() == step.strategy) {
        strategy = candidate.get();
        break;
      }
    }
    if (strategy == nullptr) {
      // Defensive: a cached plan from a context outliving a registry
      // mutation; the registry fingerprint makes this unreachable for
      // composition changes, but a same-name swap stays sound — the plan
      // is advisory and every strategy self-validates.
      step.action = PlanStep::Action::kSkippedInapplicable;
      step.capability.reason = "strategy no longer registered";
      continue;
    }
    Clock::time_point t0 = Clock::now();
    InferenceStrategy::Outcome outcome =
        strategy->Run(ctx, query, step_options, &answer);
    step.action = PlanStep::Action::kRan;
    step.outcome = OutcomeName(outcome);
    step.observed_ms = MillisSince(t0);
    ran_any = true;
    if (outcome == InferenceStrategy::Outcome::kFinal) finalized = true;
  }

  // A deadline that fired inside the LAST candidate's sweep has no later
  // step to trip the skip check; the elapsed clock is the ground truth.
  if (deadline_set && Clock::now() > deadline) trace->deadline_hit = true;
  if (!finalized) FinalizeAnswer(&answer, trace->deadline_hit, steps);
  trace->steps = std::move(steps);
  trace->total_ms = MillisSince(start);
  answer.plan = trace;
  return answer;
}

}  // namespace rwl
