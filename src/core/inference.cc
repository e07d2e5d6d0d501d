#include "src/core/inference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/core/engine_registry.h"
#include "src/core/planner.h"
#include "src/defaults/fragment.h"
#include "src/defaults/gmp90.h"
#include "src/engines/exact_engine.h"
#include "src/engines/maxent_engine.h"
#include "src/engines/profile_engine.h"
#include "src/engines/symbolic_engine.h"
#include "src/evidence/combination.h"
#include "src/evidence/dempster.h"
#include "src/logic/intern.h"
#include "src/logic/parser.h"
#include "src/logic/transform.h"

namespace rwl {

std::string StatusToString(Answer::Status status) {
  switch (status) {
    case Answer::Status::kPoint:
      return "point";
    case Answer::Status::kInterval:
      return "interval";
    case Answer::Status::kNonexistent:
      return "nonexistent";
    case Answer::Status::kUndefined:
      return "undefined";
    case Answer::Status::kUnknown:
      return "unknown";
  }
  return "?";
}

StrategySet StrategySet::Only(std::string name) {
  StrategySet set;
  set.only_ = true;
  set.names_ = {std::move(name)};
  return set;
}

StrategySet& StrategySet::Add(std::string_view name) {
  return List(name, only_);
}

StrategySet& StrategySet::Remove(std::string_view name) {
  return List(name, !only_);
}

StrategySet& StrategySet::List(std::string_view name, bool listed) {
  auto it = std::lower_bound(names_.begin(), names_.end(), name);
  const bool present = it != names_.end() && *it == name;
  if (listed && !present) names_.insert(it, std::string(name));
  if (!listed && present) names_.erase(it);
  return *this;
}

bool StrategySet::Contains(std::string_view name) const {
  return std::binary_search(names_.begin(), names_.end(), name) == only_;
}

void StrategySet::AppendKey(std::string* key) const {
  *key += only_ ? '+' : '-';
  for (const std::string& name : names_) {
    *key += name;
    *key += ',';
  }
}

namespace {

// Shared by the sweep strategies: is the engine capable at any N of the
// schedule?
bool AnySupported(const engines::FiniteEngine& engine, const QueryContext& ctx,
                  const logic::FormulaPtr& query,
                  const std::vector<int>& domain_sizes) {
  for (int n : domain_sizes) {
    if (engine.Supports(ctx, query, n)) return true;
  }
  return false;
}

// Finalizes a point answer.  A partial strategy that ran earlier (a
// symbolic interval) leaves its method behind, and `label` is appended to
// it — or `appended_label` when one is given — so the method names every
// strategy that contributed.
void SetPoint(Answer* answer, double value, bool converged,
              const std::string& label,
              const std::string& appended_label = {}) {
  answer->status = Answer::Status::kPoint;
  answer->value = value;
  answer->lo = answer->hi = value;
  answer->method =
      answer->method.empty()
          ? label
          : answer->method + " + " +
                (appended_label.empty() ? label : appended_label);
  answer->converged = converged;
}

// The engine's cost at one N of a sweep.  Exact's N-independent analysis
// (compiling and analyzing the KB and the query) runs once per sweep.
template <typename Engine>
auto PointCost(const Engine& engine, QueryContext& ctx,
               const logic::FormulaPtr& query) {
  return [&](int n) { return engine.EstimateCost(ctx, query, n); };
}

auto PointCost(const engines::ExactEngine& exact, QueryContext& ctx,
               const logic::FormulaPtr& query) {
  return [&exact, &ctx, inputs = exact.AnalyzeCost(ctx, query)](int n) {
    return exact.EstimateCost(ctx, inputs, n);
  };
}

// Shared by the sweep strategies: per-point engine cost summed over the
// (N, ⃗τ-scale) schedule.
template <typename Engine>
engines::CostEstimate SweepCost(const Engine& engine, QueryContext& ctx,
                                const logic::FormulaPtr& query,
                                const std::vector<int>& domain_sizes,
                                size_t num_scales, double limit_error) {
  const auto point_cost = PointCost(engine, ctx, query);
  engines::CostEstimate total;
  total.error = limit_error;
  // The basis describes the dominant (most expensive) probe — the one a
  // reader should reconcile the work figure against.
  double dominant_work = -1.0;
  for (int n : domain_sizes) {
    if (!engine.Supports(ctx, query, n)) continue;
    engines::CostEstimate point = point_cost(n);
    total.work += point.work * static_cast<double>(num_scales);
    total.error = std::max(total.error, point.error);
    if (point.work > dominant_work) {
      dominant_work = point.work;
      total.basis = point.basis;
    }
  }
  if (!total.basis.empty()) {
    total.basis += " at the largest N; work summed over the sweep schedule";
  }
  return total;
}

// 0. Known domain size (footnote 9): evaluate Pr_N^τ directly at N.
// Final whenever a fixed N is requested — there is no limit to fall back
// to.
class FixedDomainStrategy : public InferenceStrategy {
 public:
  std::string name() const override { return "fixed-n"; }

  bool preemptive() const override { return true; }

  engines::Capability Assess(QueryContext& /*ctx*/,
                             const logic::FormulaPtr& /*query*/,
                             const InferenceOptions& options) const override {
    engines::Capability cap;
    cap.applicable = options.fixed_domain_size > 0;
    cap.reason = cap.applicable
                     ? "fixed domain size N=" +
                           std::to_string(options.fixed_domain_size) +
                           " requested"
                     : "no fixed domain size requested";
    return cap;
  }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& options) const override {
    const int n = options.fixed_domain_size;
    engines::ProfileEngine profile;
    engines::ExactEngine exact;
    if (profile.Supports(ctx, query, n)) {
      return profile.EstimateCost(ctx, query, n);
    }
    if (exact.Supports(ctx, query, n)) {
      return exact.EstimateCost(ctx, query, n);
    }
    engines::CostEstimate none;
    none.basis = "no engine supports the fixed domain size";
    return none;
  }

  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& options, Answer* answer) const override {
    if (options.fixed_domain_size <= 0) return Outcome::kSkip;
    const int n = options.fixed_domain_size;
    engines::ProfileEngine profile;
    engines::ExactEngine exact;
    const engines::FiniteEngine* engine = nullptr;
    if (profile.Supports(ctx, query, n)) {
      engine = &profile;
    } else if (exact.Supports(ctx, query, n)) {
      engine = &exact;
    }
    if (engine != nullptr) {
      engines::FiniteResult fr =
          engine->DegreeAt(ctx, query, n, options.tolerances);
      if (fr.exhausted) {
        answer->status = Answer::Status::kUnknown;
        answer->explanation = "work budget exhausted at the fixed N";
        return Outcome::kFinal;
      }
      if (!fr.well_defined) {
        answer->status = Answer::Status::kUndefined;
        answer->method = engine == &profile ? "profile @ fixed N"
                                            : "exact @ fixed N";
        answer->explanation = "no worlds satisfy the KB at this (N, τ)";
        return Outcome::kFinal;
      }
      answer->status = Answer::Status::kPoint;
      answer->value = fr.probability;
      answer->lo = answer->hi = fr.probability;
      answer->method = engine == &profile ? "profile @ fixed N"
                                          : "exact @ fixed N";
      answer->converged = true;
      return Outcome::kFinal;
    }
    answer->status = Answer::Status::kUnknown;
    answer->explanation = "no engine supports the fixed domain size";
    return Outcome::kFinal;
  }
};

// 1. Symbolic theorems: exact Pr_∞, full language.  Points and
// nonexistence are final; an interval is partial — a numeric strategy may
// sharpen it to a point.
class SymbolicStrategy : public InferenceStrategy {
 public:
  std::string name() const override { return "symbolic"; }

  // Whether a theorem matches is only decidable by running the matchers,
  // so the capability is "always worth trying".
  engines::Capability Assess(
      QueryContext& /*ctx*/, const logic::FormulaPtr& /*query*/,
      const InferenceOptions& /*options*/) const override {
    return {true,
            "theorem matchers cover the full language; a theorem may still "
            "fail to match this (KB, query) pair"};
  }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    engines::SymbolicEngine symbolic;
    return symbolic.EstimateCost(ctx, query);
  }

  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& /*options*/,
              Answer* answer) const override {
    engines::SymbolicEngine symbolic;
    engines::SymbolicAnswer sa = symbolic.Infer(ctx, query);
    if (sa.status == engines::SymbolicAnswer::Status::kNonexistent) {
      answer->status = Answer::Status::kNonexistent;
      answer->method = sa.rule;
      answer->explanation = sa.explanation;
      return Outcome::kFinal;
    }
    if (sa.status == engines::SymbolicAnswer::Status::kInterval) {
      answer->method = sa.rule;
      answer->explanation = sa.explanation;
      answer->converged = true;
      if (sa.is_point()) {
        answer->status = Answer::Status::kPoint;
        answer->value = sa.lo;
        answer->lo = answer->hi = sa.lo;
        return Outcome::kFinal;
      }
      answer->status = Answer::Status::kInterval;
      answer->lo = sa.lo;
      answer->hi = sa.hi;
      return Outcome::kPartial;
    }
    return Outcome::kSkip;
  }
};

// 2. Profile engine sweep (unary KBs).
class ProfileSweepStrategy : public InferenceStrategy {
 public:
  std::string name() const override { return "profile"; }

  engines::Capability Assess(QueryContext& ctx,
                             const logic::FormulaPtr& query,
                             const InferenceOptions& options) const override {
    engines::ProfileEngine profile;
    engines::Capability cap;
    cap.applicable =
        AnySupported(profile, ctx, query, options.limit.domain_sizes);
    cap.reason = cap.applicable
                     ? "unary fragment within the leaf budget"
                     : "no schedule N within the engine's structural "
                       "limits (unary fragment, atom/constant caps)";
    return cap;
  }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& options) const override {
    engines::ProfileEngine profile;
    return SweepCost(profile, ctx, query, options.limit.domain_sizes,
                     options.limit.tolerance_scales.size(),
                     options.limit.convergence_epsilon);
  }

  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& options, Answer* answer) const override {
    engines::ProfileEngine profile;
    if (!AnySupported(profile, ctx, query, options.limit.domain_sizes)) {
      return Outcome::kSkip;
    }
    engines::LimitResult lr = engines::EstimateLimit(
        profile, ctx, query, options.tolerances, options.limit);
    answer->series = lr.series;
    if (lr.exhausted && answer->explanation.empty()) {
      answer->explanation = "profile engine exhausted its leaf budget";
    }
    if (lr.deadline_hit && answer->explanation.empty()) {
      answer->explanation = "profile sweep cut short by the deadline";
    }
    if (lr.never_defined) {
      // Only a sweep that actually evaluated its points may claim the KB
      // has no worlds.  A sweep cut short by the work budget or the
      // deadline has no information — fall through so the planner can try
      // the next candidate.
      if (lr.series.empty() || lr.exhausted || lr.deadline_hit) {
        return Outcome::kPartial;
      }
      answer->status = Answer::Status::kUndefined;
      answer->method = "profile sweep";
      answer->explanation = "no worlds satisfy the KB at any sampled (N, τ)";
      return Outcome::kFinal;
    }
    if (lr.value.has_value()) {
      SetPoint(answer, *lr.value, lr.converged, "profile sweep");
      return Outcome::kFinal;
    }
    return Outcome::kPartial;
  }
};

// 3. Maximum-entropy limit (unary KBs within the linear fragment).
class MaxEntStrategy : public InferenceStrategy {
 public:
  std::string name() const override { return "maxent"; }

  // The unary fragment over at most 30 predicates; the linear-fragment
  // check happens inside the solve.
  engines::Capability Assess(
      QueryContext& ctx, const logic::FormulaPtr& /*query*/,
      const InferenceOptions& /*options*/) const override {
    engines::Capability cap;
    cap.applicable = ctx.vocabulary().IsUnaryRelational() &&
                     ctx.vocabulary().num_predicates() <= 30;
    cap.reason = cap.applicable
                     ? "unary fragment (linear-fragment check happens in the "
                       "solve)"
                     : "outside the unary fragment";
    return cap;
  }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    engines::MaxEntEngine maxent;
    return maxent.EstimateCost(ctx, query);
  }

  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& options, Answer* answer) const override {
    engines::MaxEntEngine maxent;
    engines::MaxEntEngine::LimitResultME mr =
        maxent.InferLimit(ctx, query, options.tolerances);
    if (!mr.supported) return Outcome::kSkip;
    SetPoint(answer, mr.value, mr.converged, "maximum entropy");
    return Outcome::kFinal;
  }
};

// 4. Exact enumeration fallback for tiny instances.
class ExactFallbackStrategy : public InferenceStrategy {
 public:
  std::string name() const override { return "exact"; }

  // The sweep schedule is fixed small: enumeration is hopeless beyond
  // tiny N, and the limit is extrapolated from the prefix.
  static std::vector<int> SmallSizes() { return {2, 3, 4, 5, 6}; }

  engines::Capability Assess(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    engines::ExactEngine exact;
    engines::Capability cap;
    cap.applicable = AnySupported(exact, ctx, query, SmallSizes());
    cap.reason = cap.applicable
                     ? "world odometer fits at small N"
                     : "world count exceeds the enumeration cap at every "
                       "small N";
    return cap;
  }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& options) const override {
    engines::ExactEngine exact;
    engines::CostEstimate cost =
        SweepCost(exact, ctx, query, SmallSizes(),
                  options.limit.tolerance_scales.size(),
                  options.limit.convergence_epsilon);
    // Extrapolating Pr_∞ from N ≤ 6 carries real finite-size bias.
    cost.error = std::max(cost.error, 0.05);
    return cost;
  }

  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& options, Answer* answer) const override {
    engines::ExactEngine exact;
    engines::LimitOptions small;
    small.domain_sizes = SmallSizes();
    small.tolerance_scales = options.limit.tolerance_scales;
    small.num_threads = options.limit.num_threads;
    small.deadline = options.limit.deadline;
    if (!AnySupported(exact, ctx, query, small.domain_sizes)) {
      return Outcome::kSkip;
    }
    engines::LimitResult lr =
        engines::EstimateLimit(exact, ctx, query, options.tolerances, small);
    answer->series = lr.series;
    if (lr.deadline_hit && answer->explanation.empty()) {
      answer->explanation = "exact sweep cut short by the deadline";
    }
    if (lr.value.has_value()) {
      SetPoint(answer, *lr.value, lr.converged, "exact enumeration (small N)",
               "exact enumeration");
      return Outcome::kFinal;
    }
    return Outcome::kPartial;
  }
};

// ---- The defaults family (Section 6) ----
//
// Three strategies over the propositional-defaults fragment
// (defaults/fragment.h).  All are sound for the random-worlds limit:
// p-entailment is a conservative part of the GMP90 maximum-entropy system,
// and Theorem 6.1 identifies ME-plausible consequence with Pr_∞ = 1 under
// the unary translation.  epsilon_semantics and klm decide the *same*
// relation by two independent algorithms (greedy peel vs subset
// enumeration) — the differential `defaults` check leans on that.

// The family's widest caps (epsilon_semantics').
constexpr defaults::FragmentLimits kWidestDefaultsLimits{10, 16};

// The fragment analysis of (KB, query) at the widest caps, shared by the
// family: a caching context memoizes it, so one plan analyzes once
// however many of the three strategies assess, cost and run it.
std::shared_ptr<const defaults::DefaultsInstance> WidestDefaultsAnalysis(
    QueryContext& ctx, const logic::FormulaPtr& query) {
  std::string key = "defaults.instance|";
  const uint64_t query_id = query->id();
  key.append(reinterpret_cast<const char*>(&query_id), sizeof(query_id));
  if (auto cached = std::static_pointer_cast<const defaults::DefaultsInstance>(
          ctx.LookupBlob(key))) {
    return cached;
  }
  auto instance = std::make_shared<const defaults::DefaultsInstance>(
      defaults::AnalyzeDefaultsInstance(ctx.kb_conjuncts(), query,
                                        kWidestDefaultsLimits));
  ctx.StoreBlob(key, instance,
                sizeof(defaults::DefaultsInstance) +
                    instance->rules.size() * sizeof(defaults::Rule));
  return instance;
}

// A defaults-family strategy: its own caps on the shared analysis.
class DefaultsStrategy : public InferenceStrategy {
 public:
  engines::Capability Assess(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    std::shared_ptr<const defaults::DefaultsInstance> instance =
        Analysis(ctx, query);
    engines::Capability cap;
    cap.applicable = instance->ok;
    cap.reason = instance->ok
                     ? "propositional-defaults fragment: " +
                           std::to_string(instance->rules.size()) +
                           " rules over " +
                           std::to_string(instance->num_vars) + " classes"
                     : instance->reason;
    return cap;
  }

 protected:
  virtual defaults::FragmentLimits limits() const = 0;

  // Exactly AnalyzeDefaultsInstance(ctx.kb_conjuncts(), query, limits()).
  // The capped analysis walks the KB like the widest one and differs only
  // by failing once a cap is passed, so a widest analysis that stayed
  // within these caps is the capped one — same verdict, same reason.  Only
  // a pair past them is analyzed again, at these caps.
  std::shared_ptr<const defaults::DefaultsInstance> Analysis(
      QueryContext& ctx, const logic::FormulaPtr& query) const {
    std::shared_ptr<const defaults::DefaultsInstance> widest =
        WidestDefaultsAnalysis(ctx, query);
    const defaults::FragmentLimits caps = limits();
    if (static_cast<int>(widest->names.size()) <= caps.max_vars &&
        static_cast<int>(widest->rules.size()) <= caps.max_rules) {
      return widest;
    }
    return std::make_shared<const defaults::DefaultsInstance>(
        defaults::AnalyzeDefaultsInstance(ctx.kb_conjuncts(), query, caps));
  }

  // 2^classes worlds and rules + 1, the cost models' two factors.
  static std::pair<double, double> WorldsAndRules(
      const defaults::DefaultsInstance& instance) {
    return {static_cast<double>(uint64_t{1}
                                << std::max(instance.num_vars, 1)),
            static_cast<double>(instance.rules.size()) + 1.0};
  }
};

// A p-entailment decider differing only in caps and the underlying
// algorithm.
class PEntailmentStrategy : public DefaultsStrategy {
 public:
  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& /*options*/,
              Answer* answer) const override {
    std::shared_ptr<const defaults::DefaultsInstance> instance =
        Analysis(ctx, query);
    if (!instance->ok) return Outcome::kSkip;
    const defaults::Rule negated{
        instance->query.antecedent,
        defaults::Prop::Not(instance->query.consequent)};
    const bool entails_query =
        Entails(instance->rules, instance->query, instance->num_vars);
    const bool entails_negation =
        Entails(instance->rules, negated, instance->num_vars);
    if (entails_query == entails_negation) {
      // Neither: p-entailment is silent (it is incomplete for random
      // worlds).  Both: the evidence is negligible under the rules and
      // conditioning degenerates — the numeric sweeps decide.
      return Outcome::kSkip;
    }
    SetPoint(answer, entails_query ? 1.0 : 0.0, true, method_label());
    answer->explanation = entails_query
                              ? "the rules p-entail evidence → query"
                              : "the rules p-entail evidence → ¬query";
    return Outcome::kFinal;
  }

 protected:
  virtual std::string method_label() const = 0;
  virtual bool Entails(const std::vector<defaults::Rule>& rules,
                       const defaults::Rule& query, int num_vars) const = 0;
};

// 6. ε-semantics p-entailment via the Goldszmidt–Pearl greedy peel.
class EpsilonSemanticsStrategy : public PEntailmentStrategy {
 public:
  std::string name() const override { return "epsilon_semantics"; }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    const auto [worlds, rules] = WorldsAndRules(*Analysis(ctx, query));
    engines::CostEstimate cost;
    // Two greedy peels (query and negation): peel rounds × toleration
    // probes × worlds × material checks.
    cost.work = 2.0 * rules * rules * rules * worlds;
    cost.error = 0.0;
    cost.basis = "greedy tolerance peel over 2^classes worlds, both query "
                 "directions";
    return cost;
  }

 protected:
  defaults::FragmentLimits limits() const override {
    return kWidestDefaultsLimits;
  }
  std::string method_label() const override {
    return "epsilon-semantics p-entailment";
  }
  bool Entails(const std::vector<defaults::Rule>& rules,
               const defaults::Rule& query, int num_vars) const override {
    return defaults::PEntails(rules, query, num_vars);
  }
};

// 7. KLM preferential entailment — for this fragment the same relation as
// p-entailment (System P), decided by the definitional subset enumeration.
// Deliberately an independent implementation: the fuzzer compares it
// against epsilon_semantics' greedy peel.
class KlmStrategy : public PEntailmentStrategy {
 public:
  std::string name() const override { return "klm"; }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    const auto [worlds, rules] = WorldsAndRules(*Analysis(ctx, query));
    engines::CostEstimate cost;
    cost.work = 2.0 * std::pow(2.0, rules) * rules * worlds;
    cost.error = 0.0;
    cost.basis = "tolerated-rule test over all 2^rules subsets, both query "
                 "directions";
    return cost;
  }

 protected:
  defaults::FragmentLimits limits() const override { return {8, 11}; }
  std::string method_label() const override { return "klm p-entailment"; }
  bool Entails(const std::vector<defaults::Rule>& rules,
               const defaults::Rule& query, int num_vars) const override {
    return defaults::PEntailsBySubsets(rules, query, num_vars);
  }
};

// 8. GMP90 maximum-entropy defaults: the κ-strength comparison decides
// specificity beyond p-entailment; exponent-level ties fall through to the
// numeric µ*_ε series.  Exact for the fragment by Theorem 6.1.
class Gmp90Strategy : public DefaultsStrategy {
 public:
  std::string name() const override { return "gmp90"; }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    const auto [worlds, rules] = WorldsAndRules(*Analysis(ctx, query));
    engines::CostEstimate cost;
    // Strength fixed point (rounds × rules × worlds × rules) plus up to
    // six entropy solves on ties (~200 iterations each).
    cost.work = rules * rules * rules * worlds + 1200.0 * worlds;
    cost.error = 0.0;
    cost.basis = "κ-strength fixed point over 2^classes worlds (+ µ*_ε "
                 "series on exponent ties)";
    return cost;
  }

  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& /*options*/,
              Answer* answer) const override {
    std::shared_ptr<const defaults::DefaultsInstance> analysis =
        Analysis(ctx, query);
    if (!analysis->ok) return Outcome::kSkip;
    const defaults::DefaultsInstance& instance = *analysis;
    // The evidence must be propositionally satisfiable: facts are hard, so
    // contradictory evidence means no worlds at all — the sweeps' call
    // (kUndefined), not a defaults verdict.
    const uint32_t num_worlds = uint32_t{1} << instance.num_vars;
    bool evidence_satisfiable = false;
    for (uint32_t w = 0; w < num_worlds && !evidence_satisfiable; ++w) {
      evidence_satisfiable =
          defaults::EvalProp(instance.query.antecedent, w);
    }
    if (!evidence_satisfiable) return Outcome::kSkip;

    defaults::Gmp90System system(instance.num_vars, instance.rules);
    if (system.RuleStrengths().empty()) {
      // Fixed point diverged: ε-inconsistent rules.  CompareByStrengths
      // would report an indistinguishable "tie"; bow out instead.
      return Outcome::kSkip;
    }
    const int comparison = system.CompareByStrengths(instance.query);
    double value = -1.0;
    std::string how;
    if (comparison > 0) {
      value = 1.0;
      how = "cheapest evidence∧query world strictly cheaper (κ-strengths)";
    } else if (comparison < 0) {
      value = 0.0;
      how = "cheapest evidence∧¬query world strictly cheaper (κ-strengths)";
    } else {
      // Exponent-level tie: second-order terms may still decide — ask the
      // numeric µ*_ε series for both directions.
      defaults::MePlausibleResult plausible =
          system.MePlausible(instance.query);
      if (plausible.feasible && plausible.plausible) {
        value = 1.0;
        how = "µ*_ε(query|evidence) → 1 (maximum-entropy series)";
      } else {
        const defaults::Rule negated{
            instance.query.antecedent,
            defaults::Prop::Not(instance.query.consequent)};
        defaults::MePlausibleResult anti = system.MePlausible(negated);
        if (anti.feasible && anti.plausible) {
          value = 0.0;
          how = "µ*_ε(¬query|evidence) → 1 (maximum-entropy series)";
        }
      }
    }
    if (value < 0.0) return Outcome::kSkip;
    SetPoint(answer, value, true, "gmp90 maximum-entropy defaults");
    answer->explanation = how;
    return Outcome::kFinal;
  }

 protected:
  defaults::FragmentLimits limits() const override { return {8, 12}; }
};

// 9. Dempster evidence combination (Theorem 5.26): exact limit for
// essentially-disjoint competing reference classes.
class EvidenceStrategy : public InferenceStrategy {
 public:
  std::string name() const override { return "evidence"; }

  engines::Capability Assess(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    engines::Capability cap;
    evidence::EvidenceInstance instance =
        evidence::AnalyzeEvidenceInstance(ctx.kb_conjuncts(), query);
    cap.applicable = instance.ok;
    cap.reason = instance.ok
                     ? "Theorem 5.26 shape: " +
                           std::to_string(instance.alphas.size()) +
                           " essentially-disjoint mass assignments"
                     : instance.reason;
    return cap;
  }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& /*options*/) const override {
    engines::CostEstimate cost;
    evidence::EvidenceInstance instance =
        evidence::AnalyzeEvidenceInstance(ctx.kb_conjuncts(), query);
    cost.work = static_cast<double>(
        instance.alphas.empty() ? 1 : instance.alphas.size());
    cost.error = 0.0;
    cost.basis = "closed-form product over the mass assignments";
    return cost;
  }

  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& /*options*/,
              Answer* answer) const override {
    evidence::EvidenceInstance instance =
        evidence::AnalyzeEvidenceInstance(ctx.kb_conjuncts(), query);
    if (!instance.ok) return Outcome::kSkip;
    bool any_one = false;
    bool any_zero = false;
    for (double alpha : instance.alphas) {
      any_one = any_one || alpha >= 1.0;
      any_zero = any_zero || alpha <= 0.0;
    }
    if (any_one && any_zero) {
      // Conflicting hard defaults (mirrors the symbolic TryDempster):
      // equal strength — identical tolerance subscripts, exactly two
      // classes — resolves to 1/2; otherwise the limit does not exist.
      if (instance.alphas.size() == 2 &&
          instance.tolerance_indices[0] == instance.tolerance_indices[1]) {
        SetPoint(answer, 0.5, true, "dempster evidence combination");
        answer->explanation =
            "equal-strength conflicting hard defaults resolve to 1/2";
        return Outcome::kFinal;
      }
      answer->status = Answer::Status::kNonexistent;
      answer->method = "dempster evidence combination";
      answer->explanation = "conflicting hard defaults of differing "
                            "strengths: the limit does not exist "
                            "(Section 5.3)";
      return Outcome::kFinal;
    }
    SetPoint(answer, evidence::DempsterCombine(instance.alphas), true,
             "dempster evidence combination");
    answer->explanation =
        "Theorem 5.26 over " + std::to_string(instance.alphas.size()) +
        " essentially-disjoint reference classes";
    return Outcome::kFinal;
  }
};

// 10. Calibrated-interval mode (preemptive, like fixed-N: the caller asked
// a different question).  The numeric sweep runs as usual; the answer is
// the empirical quantile interval leaving out at most a δ = 1-confidence
// fraction of the well-defined sweep values, widened to cover a symbolic
// point/interval when one exists (widening can only improve coverage).
// The differential `coverage` check replays the schedule on the exact
// engine and verifies empirical coverage ≥ confidence - tolerance.
class CalibratedStrategy : public InferenceStrategy {
 public:
  std::string name() const override { return "calibrated"; }

  bool preemptive() const override { return true; }

  static bool Requested(const InferenceOptions& options) {
    return options.interval_confidence > 0.0 &&
           options.interval_confidence < 1.0;
  }

  engines::Capability Assess(QueryContext& ctx,
                             const logic::FormulaPtr& query,
                             const InferenceOptions& options) const override {
    engines::Capability cap;
    if (!Requested(options)) {
      cap.applicable = false;
      cap.reason = options.interval_confidence == 0.0
                       ? "no interval confidence requested"
                       : "interval confidence outside (0, 1)";
      return cap;
    }
    engines::ProfileEngine profile;
    engines::ExactEngine exact;
    cap.applicable =
        AnySupported(profile, ctx, query, options.limit.domain_sizes) ||
        AnySupported(exact, ctx, query, ExactFallbackStrategy::SmallSizes());
    cap.reason = cap.applicable
                     ? "interval at confidence requested; a numeric sweep "
                       "engine covers the schedule"
                     : "no numeric sweep engine covers this instance";
    return cap;
  }

  engines::CostEstimate EstimateCost(
      QueryContext& ctx, const logic::FormulaPtr& query,
      const InferenceOptions& options) const override {
    engines::ProfileEngine profile;
    if (AnySupported(profile, ctx, query, options.limit.domain_sizes)) {
      return SweepCost(profile, ctx, query, options.limit.domain_sizes,
                       options.limit.tolerance_scales.size(),
                       options.limit.convergence_epsilon);
    }
    engines::ExactEngine exact;
    return SweepCost(exact, ctx, query, ExactFallbackStrategy::SmallSizes(),
                     options.limit.tolerance_scales.size(),
                     options.limit.convergence_epsilon);
  }

  Outcome Run(QueryContext& ctx, const logic::FormulaPtr& query,
              const InferenceOptions& options, Answer* answer) const override {
    if (!Requested(options)) return Outcome::kSkip;
    engines::ProfileEngine profile;
    engines::ExactEngine exact;
    engines::LimitResult lr;
    std::string sweep_label;
    if (AnySupported(profile, ctx, query, options.limit.domain_sizes)) {
      lr = engines::EstimateLimit(profile, ctx, query, options.tolerances,
                                  options.limit);
      sweep_label = "profile sweep";
    } else if (AnySupported(exact, ctx, query,
                            ExactFallbackStrategy::SmallSizes())) {
      engines::LimitOptions small = options.limit;
      small.domain_sizes = ExactFallbackStrategy::SmallSizes();
      lr = engines::EstimateLimit(exact, ctx, query, options.tolerances,
                                  small);
      sweep_label = "exact sweep (small N)";
    } else {
      return Outcome::kSkip;
    }

    std::vector<double> values;
    for (const engines::SeriesPoint& point : lr.series) {
      if (point.well_defined) values.push_back(point.probability);
    }
    if (values.empty()) {
      // Nothing to calibrate against: fall through to the normal
      // strategies (the answer simply won't carry a coverage guarantee).
      if (answer->series.empty()) answer->series = lr.series;
      return Outcome::kSkip;
    }
    std::sort(values.begin(), values.end());

    // Leave out at most floor(n·δ) points, split between the two tails.
    const double delta = 1.0 - options.interval_confidence;
    const size_t n = values.size();
    const size_t allowed_out =
        static_cast<size_t>(static_cast<double>(n) * delta);
    const size_t out_lo = allowed_out / 2;
    const size_t out_hi = allowed_out - out_lo;
    double lo = values[out_lo];
    double hi = values[n - 1 - out_hi];

    // Hull with the symbolic kPartial path: a sound Pr_∞ point or
    // interval, when a theorem applies, must stay inside the answer.
    std::string hull_note;
    engines::SymbolicEngine symbolic;
    engines::SymbolicAnswer sa = symbolic.Infer(ctx, query);
    if (sa.status == engines::SymbolicAnswer::Status::kInterval &&
        (sa.lo < lo || sa.hi > hi)) {
      lo = std::min(lo, sa.lo);
      hi = std::max(hi, sa.hi);
      hull_note = "; widened to cover the symbolic " +
                  std::string(sa.is_point() ? "point" : "interval");
    }

    answer->status = Answer::Status::kInterval;
    answer->lo = lo;
    answer->hi = hi;
    answer->value = (lo + hi) / 2.0;
    answer->series = lr.series;
    answer->converged = lr.converged;
    answer->method = "calibrated quantile interval (" + sweep_label + ")";
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "confidence %.3g: %zu of %zu well-defined sweep values "
                  "inside by construction",
                  options.interval_confidence, n - allowed_out, n);
    answer->explanation = detail + hull_note;
    return Outcome::kFinal;
  }
};

}  // namespace

EngineRegistry& EngineRegistry::Default() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    r->Register(0, std::make_shared<FixedDomainStrategy>());
    r->Register(1, std::make_shared<CalibratedStrategy>());
    r->Register(10, std::make_shared<SymbolicStrategy>());
    r->Register(20, std::make_shared<ProfileSweepStrategy>());
    // The closed-form fragment strategies rank after profile in fidelity
    // order: on their fragments they are exact, but profile's finite
    // sweeps remain the default oracle so answers outside forced/cost
    // runs are unchanged.  In kMinCost mode their tiny predicted work
    // puts them first whenever they apply.
    r->Register(22, std::make_shared<EpsilonSemanticsStrategy>());
    r->Register(23, std::make_shared<KlmStrategy>());
    r->Register(24, std::make_shared<Gmp90Strategy>());
    r->Register(26, std::make_shared<EvidenceStrategy>());
    r->Register(30, std::make_shared<MaxEntStrategy>());
    r->Register(40, std::make_shared<ExactFallbackStrategy>());
    return r;
  }();
  return *registry;
}

void EngineRegistry::Register(
    int priority, std::shared_ptr<const InferenceStrategy> strategy) {
  std::lock_guard<std::mutex> lock(mutex_);
  strategies_.emplace(priority, std::move(strategy));
  auto next = std::make_shared<Snapshot>();
  for (const auto& [rank, registered] : strategies_) {
    next->ordered.push_back(registered);
    next->fingerprint = logic::HashCombine(
        next->fingerprint, std::hash<std::string>{}(registered->name()));
  }
  snapshot_ = std::move(next);
}

std::shared_ptr<const EngineRegistry::Snapshot> EngineRegistry::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

std::shared_ptr<const InferenceStrategy> EngineRegistry::Find(
    std::string_view name) const {
  for (const auto& strategy : snapshot()->ordered) {
    if (strategy->name() == name) return strategy;
  }
  return nullptr;
}

Answer EngineRegistry::Infer(QueryContext& ctx,
                             const logic::FormulaPtr& query,
                             const InferenceOptions& options) const {
  return PlanAndExecute(*this, ctx, query, options);
}

std::string OpenFormulaError(const logic::FormulaPtr& formula,
                             std::string_view what) {
  std::set<std::string> free_variables = logic::FreeVariables(formula);
  if (free_variables.empty()) return {};
  std::string error(what);
  error += " has free variables:";
  for (const auto& name : free_variables) error += " " + name;
  error += " (lowercase-initial terms are variables; constants start "
           "uppercase)";
  return error;
}

namespace {

// Answers kUnknown, with `error` as the explanation, when `error` is
// non-empty; returns whether it did.
bool AnswerIfRefused(std::string error, Answer* answer) {
  if (error.empty()) return false;
  *answer = Answer{};
  answer->status = Answer::Status::kUnknown;
  answer->explanation = std::move(error);
  return true;
}

// The engines treat an unbound variable as a programming error and abort;
// an open formula must be answered before it reaches them.  Returns true
// (and fills *answer) when `formula` is open.
bool AnswerIfOpen(const logic::FormulaPtr& formula, std::string_view what,
                  Answer* answer) {
  return AnswerIfRefused(OpenFormulaError(formula, what), answer);
}

// Registering a symbol at a second arity or kind aborts; a formula that
// would do so against the KB's vocabulary is answered first.
bool AnswerIfConflict(const logic::FormulaPtr& formula,
                      const logic::Vocabulary& vocabulary, Answer* answer) {
  return AnswerIfRefused(logic::SymbolConflict(formula, vocabulary), answer);
}

}  // namespace

// The one query check: every KB form below answers through here.
Answer DegreeOfBelief(QueryContext& ctx, const logic::FormulaPtr& query,
                      const InferenceOptions& options) {
  Answer open;
  if (AnswerIfOpen(query, "query", &open)) return open;
  return EngineRegistry::Default().Infer(ctx, query, options);
}

Answer DegreeOfBelief(const KnowledgeBase& kb, const logic::FormulaPtr& query,
                      const InferenceOptions& options) {
  Answer refused;
  if (AnswerIfOpen(kb.AsFormula(), "knowledge base", &refused) ||
      AnswerIfConflict(query, kb.vocabulary(), &refused)) {
    return refused;
  }
  QueryContext ctx =
      MakeQueryContext(kb, std::span<const logic::FormulaPtr>(&query, 1),
                       options);
  return DegreeOfBelief(ctx, query, options);
}

QueryContext MakeQueryContext(const KnowledgeBase& kb,
                              std::span<const logic::FormulaPtr> queries,
                              const InferenceOptions& options) {
  logic::Vocabulary vocabulary = kb.vocabulary();
  for (const auto& query : queries) {
    logic::RegisterSymbols(query, &vocabulary);
  }
  return QueryContext(std::move(vocabulary), kb.AsFormula(),
                      options.enable_caching);
}

bool QueryCoveredByVocabulary(const logic::Vocabulary& vocabulary,
                              const logic::FormulaPtr& query) {
  for (const auto& predicate : logic::PredicatesOf(query)) {
    if (!vocabulary.FindPredicate(predicate).has_value()) return false;
  }
  for (const auto& function : logic::FunctionsOf(query)) {
    if (!vocabulary.FindFunction(function).has_value()) return false;
  }
  return true;
}

std::vector<Answer> DegreesOfBelief(const KnowledgeBase& kb,
                                    std::span<const logic::FormulaPtr> queries,
                                    const InferenceOptions& options) {
  // Queries share the context only when they add no symbols to the KB's
  // vocabulary; a query introducing fresh predicates/constants gets its
  // own context instead.  This keeps every answer identical to the
  // sequential DegreeOfBelief call: a shared union vocabulary would let
  // one query's symbols shift another's engine support limits (world
  // counts grow with the vocabulary, and the profile engine caps atoms
  // and constants).
  std::vector<Answer> answers(queries.size());
  Answer open_kb;
  if (AnswerIfOpen(kb.AsFormula(), "knowledge base", &open_kb)) {
    std::fill(answers.begin(), answers.end(), open_kb);
    return answers;
  }
  QueryContext shared = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(), options);
  // Hash-consing makes duplicate queries pointer-equal: answer each
  // distinct formula once.
  std::unordered_map<const logic::Formula*, size_t> first_index;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = first_index.emplace(queries[i].get(), i);
    if (!inserted) {
      answers[i] = answers[it->second];
      continue;
    }
    if (AnswerIfConflict(queries[i], kb.vocabulary(), &answers[i])) continue;
    if (QueryCoveredByVocabulary(kb.vocabulary(), queries[i])) {
      answers[i] = DegreeOfBelief(shared, queries[i], options);
    } else {
      answers[i] = DegreeOfBelief(kb, queries[i], options);
    }
  }
  return answers;
}

std::vector<Answer> DegreesOfBelief(const KnowledgeBase& kb,
                                    std::span<const std::string> queries,
                                    const InferenceOptions& options) {
  std::vector<logic::FormulaPtr> parsed(queries.size());
  std::vector<Answer> answers(queries.size());
  std::vector<logic::FormulaPtr> valid;
  valid.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    logic::ParseResult result = logic::ParseFormula(queries[i]);
    if (!result.ok()) {
      answers[i].status = Answer::Status::kUnknown;
      answers[i].explanation = "query parse error: " + result.error;
      continue;
    }
    parsed[i] = result.formula;
    valid.push_back(result.formula);
  }
  std::vector<Answer> valid_answers = DegreesOfBelief(kb, valid, options);
  size_t next = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (parsed[i] != nullptr) answers[i] = std::move(valid_answers[next++]);
  }
  return answers;
}

Answer ConditionalDegreeOfBelief(const KnowledgeBase& kb,
                                 const logic::FormulaPtr& query,
                                 const logic::FormulaPtr& evidence,
                                 const InferenceOptions& options) {
  Answer refused;
  if (AnswerIfOpen(evidence, "evidence", &refused) ||
      AnswerIfConflict(evidence, kb.vocabulary(), &refused)) {
    return refused;
  }
  KnowledgeBase conditioned = kb;
  conditioned.Add(evidence);
  return DegreeOfBelief(conditioned, query, options);
}

Answer DegreeOfBelief(const KnowledgeBase& kb, std::string_view query,
                      const InferenceOptions& options) {
  // A batch of one: the batch form answers a parse error, and each query
  // exactly like the sequential call.
  const std::string text(query);
  return DegreesOfBelief(kb, std::span<const std::string>(&text, 1),
                         options)[0];
}

}  // namespace rwl
