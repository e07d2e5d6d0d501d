// The cost-based query planner (core/planner.h): capability gating, plan
// traces, plan-cache bit-identity, deadlines, work budgets, strategy sets,
// and differential equivalence of planner answers against every forced
// applicable engine on generated workloads.
#include <chrono>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/planner.h"
#include "src/engines/profile_engine.h"
#include "src/logic/parser.h"
#include "src/logic/transform.h"
#include "src/testing/differential.h"
#include "src/testing/scenario.h"
#include "src/workload/generators.h"

namespace rwl {
namespace {

KnowledgeBase HepatitisKb() {
  KnowledgeBase kb;
  std::string error;
  EXPECT_TRUE(kb.AddParsed("Jaun(Eric)\n"
                           "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n",
                           &error))
      << error;
  return kb;
}

InferenceOptions FastOptions() {
  InferenceOptions options;
  options.tolerances = semantics::ToleranceVector::Uniform(0.04);
  options.limit.domain_sizes = {8, 12, 16};
  options.limit.tolerance_scales = {1.0, 0.5};
  return options;
}

const PlanStep* FindStep(const Answer& answer, const std::string& strategy) {
  if (answer.plan == nullptr) return nullptr;
  for (const PlanStep& step : answer.plan->steps) {
    if (step.strategy == strategy) return &step;
  }
  return nullptr;
}

int CountRan(const Answer& answer) {
  int ran = 0;
  for (const PlanStep& step : answer.plan->steps) {
    if (step.action == PlanStep::Action::kRan) ++ran;
  }
  return ran;
}

bool BitIdentical(const Answer& a, const Answer& b) {
  return a.status == b.status && a.value == b.value && a.lo == b.lo &&
         a.hi == b.hi && a.method == b.method &&
         a.converged == b.converged && a.series.size() == b.series.size();
}

TEST(PlannerTest, TraceRecordsAssessmentAndExecution) {
  KnowledgeBase kb = HepatitisKb();
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", FastOptions());
  ASSERT_EQ(answer.status, Answer::Status::kPoint);
  EXPECT_NEAR(answer.value, 0.8, 0.01);

  ASSERT_NE(answer.plan, nullptr);
  EXPECT_EQ(answer.plan->mode, "fidelity");
  EXPECT_FALSE(answer.plan->from_cache);
  // Every registered strategy was assessed.
  EXPECT_EQ(answer.plan->steps.size(),
            EngineRegistry::Default().Ordered().size());
  // The symbolic theorems answered; later candidates were not reached.
  const PlanStep* symbolic = FindStep(answer, "symbolic");
  ASSERT_NE(symbolic, nullptr);
  EXPECT_EQ(symbolic->action, PlanStep::Action::kRan);
  EXPECT_EQ(symbolic->outcome, "final");
  EXPECT_GT(symbolic->predicted.work, 0.0);
  const PlanStep* profile = FindStep(answer, "profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->action, PlanStep::Action::kNotReached);
  EXPECT_TRUE(profile->capability.applicable);
}

TEST(PlannerTest, PlanCacheHitIsBitIdenticalToColdPlan) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  logic::FormulaPtr query = logic::ParseFormula("Hep(Eric)").formula;
  QueryContext ctx = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(&query, 1), options);

  Answer cold = DegreeOfBelief(ctx, query, options);
  Answer warm = DegreeOfBelief(ctx, query, options);
  ASSERT_NE(cold.plan, nullptr);
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_FALSE(cold.plan->from_cache);
  EXPECT_TRUE(warm.plan->from_cache);
  EXPECT_EQ(warm.plan->planning_ms, 0.0);
  EXPECT_TRUE(BitIdentical(cold, warm));
}

TEST(PlannerTest, SameShapeQueriesShareACachedPlan) {
  KnowledgeBase kb;
  std::string error;
  ASSERT_TRUE(kb.AddParsed("Jaun(Eric)\nJaun(Tom)\n"
                           "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n",
                           &error))
      << error;
  InferenceOptions options = FastOptions();
  logic::FormulaPtr eric = logic::ParseFormula("Hep(Eric)").formula;
  logic::FormulaPtr tom = logic::ParseFormula("Hep(Tom)").formula;
  ASSERT_NE(eric, tom);
  EXPECT_EQ(PlanShapeFingerprint(eric), PlanShapeFingerprint(tom));

  std::vector<logic::FormulaPtr> queries = {eric, tom};
  QueryContext ctx = MakeQueryContext(kb, queries, options);
  Answer first = DegreeOfBelief(ctx, eric, options);
  Answer second = DegreeOfBelief(ctx, tom, options);
  EXPECT_FALSE(first.plan->from_cache);
  EXPECT_TRUE(second.plan->from_cache)
      << "a different constant with the same query shape must reuse the "
         "cached plan";
}

TEST(PlannerTest, ShapeFingerprintDistinguishesStructure) {
  logic::FormulaPtr hep = logic::ParseFormula("Hep(Eric)").formula;
  logic::FormulaPtr jaun = logic::ParseFormula("Jaun(Eric)").formula;
  logic::FormulaPtr both =
      logic::ParseFormula("Hep(Eric) & Jaun(Eric)").formula;
  EXPECT_NE(PlanShapeFingerprint(hep), PlanShapeFingerprint(jaun));
  EXPECT_NE(PlanShapeFingerprint(hep), PlanShapeFingerprint(both));
}

TEST(PlannerTest, SetOfOneRunsOnlyThatStrategy) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();

  options.strategies = StrategySet::Only("profile");
  Answer profile = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(profile.status, Answer::Status::kPoint);
  EXPECT_NEAR(profile.value, 0.8, 0.02);
  EXPECT_NE(profile.method.find("profile"), std::string::npos);
  ASSERT_NE(profile.plan, nullptr);
  EXPECT_EQ(profile.plan->mode, "fidelity");
  EXPECT_EQ(CountRan(profile), 1);

  options.strategies = StrategySet::Only("maxent");
  Answer maxent = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(maxent.status, Answer::Status::kPoint);
  EXPECT_NEAR(maxent.value, 0.8, 0.02);

  // Sampling is no planner strategy (the Monte-Carlo engine is a test
  // oracle): forcing it answers like any unregistered name.
  options.strategies = StrategySet::Only("montecarlo");
  Answer mc = DegreeOfBelief(kb, "Hep(Eric)", options);
  EXPECT_EQ(mc.status, Answer::Status::kUnknown);
  EXPECT_EQ(mc.explanation, "no strategy named 'montecarlo' is registered");
}

TEST(PlannerTest, SetOfOneAnswersLikeRunningTheStrategyAlone) {
  // What forcing a strategy has always meant: its own Run on a fresh answer.
  KnowledgeBase kb = HepatitisKb();
  logic::FormulaPtr query = logic::ParseFormula("Hep(Eric)").formula;
  for (const char* name : {"symbolic", "profile", "maxent", "exact"}) {
    InferenceOptions only = FastOptions();
    only.strategies = StrategySet::Only(name);
    Answer planned = DegreeOfBelief(kb, query, only);
    QueryContext ctx = MakeQueryContext(
        kb, std::span<const logic::FormulaPtr>(&query, 1), only);
    Answer alone;
    EngineRegistry::Default().Find(name)->Run(ctx, query, only, &alone);
    EXPECT_TRUE(BitIdentical(planned, alone)) << name;
  }
}

// Counts the planner's calls into it; never answers.
struct CountingStrategy : InferenceStrategy {
  std::string name() const override { return "counting"; }
  engines::Capability Assess(QueryContext&, const logic::FormulaPtr&,
                             const InferenceOptions&) const override {
    ++calls;
    return {true, "always"};
  }
  engines::CostEstimate EstimateCost(QueryContext&, const logic::FormulaPtr&,
                                     const InferenceOptions&) const override {
    return {1e9, 0.0, "uninformative"};
  }
  Outcome Run(QueryContext&, const logic::FormulaPtr&,
              const InferenceOptions&, Answer*) const override {
    ++calls;
    return Outcome::kSkip;
  }
  mutable int calls = 0;
};

TEST(PlannerTest, OutOfSetStrategiesAreNeverAssessed) {
  auto counting = std::make_shared<CountingStrategy>();
  EngineRegistry registry;
  registry.Register(0, counting);
  registry.Register(10, EngineRegistry::Default().Find("symbolic"));
  KnowledgeBase kb = HepatitisKb();
  logic::FormulaPtr query = logic::ParseFormula("Hep(Eric)").formula;
  InferenceOptions options = FastOptions();
  QueryContext ctx = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(&query, 1), options);

  options.strategies.Remove("counting");
  Answer answer = PlanAndExecute(registry, ctx, query, options);
  EXPECT_EQ(answer.status, Answer::Status::kPoint);
  EXPECT_EQ(counting->calls, 0);
  ASSERT_NE(FindStep(answer, "counting"), nullptr);
  EXPECT_EQ(FindStep(answer, "counting")->capability.reason,
            "not in the strategy set");

  // The default set admits a custom strategy: assessed, then run.
  PlanAndExecute(registry, ctx, query, FastOptions());
  EXPECT_EQ(counting->calls, 2);
}

TEST(PlannerTest, UnknownStrategyNameIsReported) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  options.strategies = StrategySet::Only("symbolic").Add("no-such-engine");
  Answer bogus = DegreeOfBelief(kb, "Hep(Eric)", options);
  EXPECT_EQ(bogus.status, Answer::Status::kUnknown);
  EXPECT_EQ(bogus.explanation,
            "no strategy named 'no-such-engine' is registered");
}

TEST(PlannerTest, DifferentSetsCacheDifferentPlans) {
  KnowledgeBase kb = HepatitisKb();
  logic::FormulaPtr query = logic::ParseFormula("Hep(Eric)").formula;
  InferenceOptions all = FastOptions();
  InferenceOptions numeric = FastOptions();
  numeric.strategies.Remove("symbolic");
  QueryContext ctx = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(&query, 1), all);
  for (bool warm : {false, true}) {
    Answer a = DegreeOfBelief(ctx, query, all);
    Answer b = DegreeOfBelief(ctx, query, numeric);
    EXPECT_EQ(a.plan->from_cache, warm);
    EXPECT_EQ(b.plan->from_cache, warm);
    EXPECT_NE(a.method, b.method);
  }
}

TEST(PlannerTest, ForcedAnswersMatchPlannerAnswer) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  Answer planned = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(planned.status, Answer::Status::kPoint);
  for (const char* name : {"profile", "maxent", "exact"}) {
    InferenceOptions forced_options = options;
    forced_options.strategies = StrategySet::Only(name);
    Answer forced = DegreeOfBelief(kb, "Hep(Eric)", forced_options);
    ASSERT_EQ(forced.status, Answer::Status::kPoint) << name;
    EXPECT_NEAR(forced.value, planned.value, 0.06) << name;
  }
}

TEST(PlannerTest, WorkBudgetSkipsExpensiveCandidates) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  options.strategies.Remove("symbolic");

  // A budget below every numeric candidate: nothing may run.
  options.work_budget = 1e3;
  Answer starved = DegreeOfBelief(kb, "Hep(Eric)", options);
  EXPECT_EQ(starved.status, Answer::Status::kUnknown);
  for (const char* name : {"profile", "maxent", "exact"}) {
    const PlanStep* step = FindStep(starved, name);
    ASSERT_NE(step, nullptr) << name;
    EXPECT_EQ(step->action, PlanStep::Action::kSkippedBudget) << name;
  }

  // A budget the profile sweep fits but the entropy solve and the exact
  // odometer exceed: the planner answers with the affordable candidate.
  options.work_budget = 1.5e5;
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(answer.status, Answer::Status::kPoint);
  EXPECT_NE(answer.method.find("profile"), std::string::npos);
  EXPECT_NEAR(answer.value, 0.8, 0.02);
}

TEST(PlannerTest, WorkBudgetAppliesToForcedStrategies) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  options.strategies = StrategySet::Only("profile");
  options.work_budget = 1.0;
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", options);
  EXPECT_EQ(answer.status, Answer::Status::kUnknown);
  const PlanStep* profile = FindStep(answer, "profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->action, PlanStep::Action::kSkippedBudget);
  EXPECT_EQ(CountRan(answer), 0);
}

TEST(PlannerTest, ExpiredDeadlineRunsOnlyTheCheapestCandidate) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  options.strategies.Remove("symbolic");
  // Effectively already expired when execution starts; the planner still
  // runs exactly one candidate — the cheapest (the profile sweep on this
  // small KB) — so a late query gets its bounded-overshoot answer.
  options.deadline_ms = 1e-6;
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_NE(answer.plan, nullptr);
  EXPECT_TRUE(answer.plan->deadline_hit);
  EXPECT_EQ(CountRan(answer), 1);
  const PlanStep* profile = FindStep(answer, "profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->action, PlanStep::Action::kRan);
  // Candidates after the finalizing one read "not reached"; candidates
  // the deadline skipped never ran.
  const PlanStep* maxent = FindStep(answer, "maxent");
  ASSERT_NE(maxent, nullptr);
  EXPECT_NE(maxent->action, PlanStep::Action::kRan);
}

TEST(PlannerTest, ExpiredDeadlineCutsSweepBetweenProbes) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  logic::FormulaPtr query = logic::ParseFormula("Hep(Eric)").formula;
  QueryContext ctx = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(&query, 1), options);
  engines::ProfileEngine profile;
  engines::LimitOptions sweep;
  sweep.domain_sizes = {8, 12, 16};
  sweep.deadline = std::chrono::steady_clock::now() -
                   std::chrono::seconds(1);
  engines::LimitResult result = engines::EstimateLimit(
      profile, ctx, query, options.tolerances, sweep);
  EXPECT_TRUE(result.deadline_hit);
  EXPECT_FALSE(result.value.has_value());
  EXPECT_TRUE(result.series.empty());
}

TEST(PlannerTest, FixedNRunsDespiteExpiredDeadline) {
  // Regression: fixed-N defines the question (Pr_N, footnote 9) — an
  // expired deadline must not substitute a cheaper engine's Pr_∞ answer.
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  options.fixed_domain_size = 8;
  options.deadline_ms = 1e-6;
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(answer.status, Answer::Status::kPoint);
  EXPECT_NE(answer.method.find("fixed N"), std::string::npos)
      << answer.method;
  const PlanStep* fixed_n = FindStep(answer, "fixed-n");
  ASSERT_NE(fixed_n, nullptr);
  EXPECT_EQ(fixed_n->action, PlanStep::Action::kRan);
  EXPECT_TRUE(fixed_n->preemptive);
}

TEST(PlannerTest, DeadlineCutSweepDoesNotClaimUndefined) {
  // Regression: a sweep whose deadline fired before any point was
  // evaluated has zero information — it must not finalize kUndefined
  // ("the KB has no worlds") on a satisfiable KB.
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  options.strategies = StrategySet::Only("profile");
  options.deadline_ms = 1e-6;
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", options);
  EXPECT_NE(answer.status, Answer::Status::kUndefined);
  EXPECT_EQ(answer.status, Answer::Status::kUnknown);
  // And a deadline-truncated sweep must never claim convergence.
  EXPECT_FALSE(answer.converged);
}

TEST(PlannerTest, CostModePicksCheapestApplicable) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  options.strategies.Remove("symbolic");
  options.plan_mode = PlanMode::kMinCost;
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(answer.status, Answer::Status::kPoint);
  // On this small KB the profile sweep is the cheapest candidate (the
  // entropy solve's per-atom cost only wins on wide vocabularies).
  EXPECT_NE(answer.method.find("profile"), std::string::npos);
  EXPECT_EQ(answer.plan->mode, "cost");
  ASSERT_GE(answer.plan->steps.size(), 2u);
  EXPECT_EQ(answer.plan->steps[0].strategy, "profile");
  EXPECT_NEAR(answer.value, 0.8, 0.02);
}

TEST(PlannerTest, RegistryFindLooksUpByName) {
  EngineRegistry& registry = EngineRegistry::Default();
  EXPECT_NE(registry.Find("symbolic"), nullptr);
  EXPECT_EQ(registry.Find("montecarlo"), nullptr);
  EXPECT_EQ(registry.Find("no-such-engine"), nullptr);
}

TEST(PlannerTest, ExplainRenderingMentionsEveryStrategy) {
  KnowledgeBase kb = HepatitisKb();
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", FastOptions());
  std::string rendered = FormatPlanTrace(*answer.plan);
  EXPECT_NE(rendered.find("mode=fidelity"), std::string::npos);
  EXPECT_NE(rendered.find("symbolic"), std::string::npos);
  EXPECT_NE(rendered.find("predicted work="), std::string::npos);
  for (const auto& strategy : EngineRegistry::Default().Ordered()) {
    EXPECT_NE(rendered.find(strategy->name()), std::string::npos)
        << strategy->name();
  }
}

// ---- defaults / evidence / calibrated strategies (PR 10) ----

KnowledgeBase PenguinKb() {
  KnowledgeBase kb;
  std::string error;
  EXPECT_TRUE(kb.AddParsed("#(Bird(x) ; Penguin(x))[x] ~= 1\n"
                           "#(Fly(x) ; Bird(x))[x] ~= 1\n"
                           "#(Fly(x) ; Penguin(x))[x] ~= 0\n"
                           "Penguin(Opus)\n",
                           &error))
      << error;
  return kb;
}

KnowledgeBase DempsterKb() {
  KnowledgeBase kb;
  std::string error;
  EXPECT_TRUE(kb.AddParsed("#(Hep(x) ; Jaun(x))[x] ~=_1 0.8\n"
                           "#(Hep(x) ; Pos(x))[x] ~=_2 0.75\n"
                           "Jaun(Eric)\n"
                           "Pos(Eric)\n"
                           "exists! x. (Jaun(x) & Pos(x))\n",
                           &error))
      << error;
  return kb;
}

TEST(PlannerTest, DefaultsFamilyInapplicableOutsideFragment) {
  // The hepatitis KB's 0.8 statistic is soft — not a hard default — so
  // every defaults-family capability must decline, and forcing any of
  // them answers kUnknown with the skip recorded in the trace.  The
  // evidence strategy needs two reference classes plus the ∃! overlap
  // conjuncts, so it declines too.
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  logic::FormulaPtr query = logic::ParseFormula("Hep(Eric)").formula;
  QueryContext ctx = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(&query, 1), options);
  for (const char* name :
       {"epsilon_semantics", "klm", "gmp90", "evidence"}) {
    auto strategy = EngineRegistry::Default().Find(name);
    ASSERT_NE(strategy, nullptr) << name;
    engines::Capability cap = strategy->Assess(ctx, query, options);
    EXPECT_FALSE(cap.applicable) << name << ": " << cap.reason;

    InferenceOptions forced = options;
    forced.strategies = StrategySet::Only(name);
    Answer answer = DegreeOfBelief(kb, "Hep(Eric)", forced);
    EXPECT_EQ(answer.status, Answer::Status::kUnknown) << name;
    ASSERT_NE(answer.plan, nullptr) << name;
    const PlanStep* step = FindStep(answer, name);
    ASSERT_NE(step, nullptr) << name;
    EXPECT_EQ(step->action, PlanStep::Action::kSkippedInapplicable) << name;
    EXPECT_EQ(CountRan(answer), 0) << name;
  }
}

TEST(PlannerTest, DefaultsFamilyAppliesToPenguinKb) {
  // The penguin triad is inside the propositional-defaults fragment:
  // every defaults capability accepts with a tiny predicted cost, and the
  // three strategies agree on the classic answers — specificity beats the
  // bird default (Fly(Opus) = 0) and the chain fires (Bird(Opus) = 1).
  KnowledgeBase kb = PenguinKb();
  InferenceOptions options = FastOptions();
  logic::FormulaPtr query = logic::ParseFormula("Fly(Opus)").formula;
  QueryContext ctx = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(&query, 1), options);
  for (const char* name : {"epsilon_semantics", "klm", "gmp90"}) {
    auto strategy = EngineRegistry::Default().Find(name);
    ASSERT_NE(strategy, nullptr) << name;
    engines::Capability cap = strategy->Assess(ctx, query, options);
    EXPECT_TRUE(cap.applicable) << name << ": " << cap.reason;
    engines::CostEstimate cost = strategy->EstimateCost(ctx, query, options);
    EXPECT_GT(cost.work, 0.0) << name;
    // Exponentially cheaper than any numeric sweep of this KB.
    EXPECT_LT(cost.work, 1e5) << name;

    InferenceOptions forced = options;
    forced.strategies = StrategySet::Only(name);
    Answer fly = DegreeOfBelief(kb, "Fly(Opus)", forced);
    ASSERT_EQ(fly.status, Answer::Status::kPoint) << name;
    EXPECT_EQ(fly.value, 0.0) << name;
    EXPECT_TRUE(fly.converged) << name;
    Answer bird = DegreeOfBelief(kb, "Bird(Opus)", forced);
    ASSERT_EQ(bird.status, Answer::Status::kPoint) << name;
    EXPECT_EQ(bird.value, 1.0) << name;
  }
  // Removing the family from the set withdraws it from the plan.
  InferenceOptions without = options;
  without.strategies.Remove("epsilon_semantics").Remove("klm").Remove(
      "gmp90");
  Answer planned = DegreeOfBelief(kb, "Fly(Opus)", without);
  for (const char* name : {"epsilon_semantics", "klm", "gmp90"}) {
    const PlanStep* step = FindStep(planned, name);
    ASSERT_NE(step, nullptr) << name;
    EXPECT_FALSE(step->capability.applicable) << name;
    EXPECT_EQ(step->capability.reason, "not in the strategy set") << name;
  }
}

TEST(PlannerTest, CachingContextAnalyzesTheDefaultsFragmentOncePerPlan) {
  // The three defaults strategies assess and cost one shared analysis of
  // (KB, query), memoized in the context.  Planning the same cold query
  // with and without the family in the set differs by exactly one blob
  // miss (the analysis, computed and stored once) and by at least five
  // hits (the other assess/cost consults of it).
  KnowledgeBase kb = PenguinKb();
  logic::FormulaPtr query = logic::ParseFormula("Fly(Opus)").formula;
  InferenceOptions with = FastOptions();
  InferenceOptions without = FastOptions();
  without.strategies.Remove("epsilon_semantics").Remove("klm").Remove(
      "gmp90");
  auto cold_plan_stats = [&](const InferenceOptions& options) {
    QueryContext ctx = MakeQueryContext(
        kb, std::span<const logic::FormulaPtr>(&query, 1), options);
    Answer answer = DegreeOfBelief(ctx, query, options);
    EXPECT_EQ(answer.status, Answer::Status::kPoint);
    EXPECT_FALSE(answer.plan->from_cache);
    return ctx.cache_stats();
  };
  const QueryContext::CacheStats family = cold_plan_stats(with);
  const QueryContext::CacheStats rest = cold_plan_stats(without);
  EXPECT_EQ(family.blob_misses - rest.blob_misses, 1u);
  EXPECT_GE(family.blob_hits - rest.blob_hits, 5u);
}

TEST(PlannerTest, EvidenceStrategyCombinesByDempstersRule) {
  KnowledgeBase kb = DempsterKb();
  InferenceOptions options = FastOptions();
  options.strategies = StrategySet::Only("evidence");
  Answer forced = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(forced.status, Answer::Status::kPoint);
  // 0.8·0.75 / (0.8·0.75 + 0.2·0.25) = 12/13.
  EXPECT_NEAR(forced.value, 12.0 / 13.0, 1e-9);
  EXPECT_NE(forced.method.find("dempster"), std::string::npos);
  EXPECT_TRUE(forced.converged);

  // The planner (symbolic first in fidelity order) lands on the same
  // closed form.
  options.strategies = StrategySet();
  Answer planned = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(planned.status, Answer::Status::kPoint);
  EXPECT_NEAR(planned.value, 12.0 / 13.0, 1e-9);
}

TEST(PlannerTest, CostModeCacheReplaysDefaultsPlanBitIdentically) {
  // A cost-ordered plan over the penguin KB ranks the closed-form
  // defaults strategies ahead of every numeric sweep; a plan-cache hit
  // must replay the exact same strategy order and answer bit-identically.
  KnowledgeBase kb = PenguinKb();
  InferenceOptions options = FastOptions();
  options.plan_mode = PlanMode::kMinCost;
  options.strategies.Remove("symbolic");
  logic::FormulaPtr query = logic::ParseFormula("Fly(Opus)").formula;
  QueryContext ctx = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(&query, 1), options);

  Answer cold = DegreeOfBelief(ctx, query, options);
  Answer warm = DegreeOfBelief(ctx, query, options);
  ASSERT_EQ(cold.status, Answer::Status::kPoint);
  EXPECT_EQ(cold.value, 0.0);
  EXPECT_NE(cold.method.find("p-entailment"), std::string::npos)
      << cold.method;
  ASSERT_NE(cold.plan, nullptr);
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_FALSE(cold.plan->from_cache);
  EXPECT_TRUE(warm.plan->from_cache);
  EXPECT_TRUE(BitIdentical(cold, warm));
  ASSERT_EQ(cold.plan->steps.size(), warm.plan->steps.size());
  for (size_t i = 0; i < cold.plan->steps.size(); ++i) {
    EXPECT_EQ(cold.plan->steps[i].strategy, warm.plan->steps[i].strategy)
        << "strategy order diverged at step " << i;
  }
}

TEST(PlannerTest, CalibratedIntervalAnswersWithCoveringInterval) {
  KnowledgeBase kb = HepatitisKb();
  InferenceOptions options = FastOptions();
  options.interval_confidence = 0.9;
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(answer.status, Answer::Status::kInterval);
  EXPECT_NE(answer.method.find("calibrated"), std::string::npos)
      << answer.method;
  EXPECT_LE(answer.lo, answer.hi);
  EXPECT_GE(answer.lo, 0.0);
  EXPECT_LE(answer.hi, 1.0);
  // The true limit sits inside the calibrated interval here.
  EXPECT_LE(answer.lo, 0.8 + 1e-9);
  EXPECT_GE(answer.hi, 0.8 - 1e-9);
  ASSERT_FALSE(answer.series.empty());
  // Self-coverage of the sweep the interval was calibrated on.
  EXPECT_GE(testing::EmpiricalCoverage(answer.series, answer.lo, answer.hi),
            0.9 - 1e-9);
  // The preemptive calibrated strategy owns the answer; the plan shows it.
  const PlanStep* calibrated = FindStep(answer, "calibrated");
  ASSERT_NE(calibrated, nullptr);
  EXPECT_EQ(calibrated->action, PlanStep::Action::kRan);

  // Without the request the strategy stays out of the way.
  InferenceOptions plain = FastOptions();
  Answer point = DegreeOfBelief(kb, "Hep(Eric)", plain);
  EXPECT_EQ(point.status, Answer::Status::kPoint);
}

// Differential equivalence on generated workloads: the planner's answer
// agrees with every forced applicable engine, the cost-ordered mode, and
// plan-cache hits are bit-identical (testing/differential.cc check).
TEST(PlannerTest, MiniFuzzPlannerDifferential) {
  std::mt19937 rng(20260730);
  for (int i = 0; i < 20; ++i) {
    workload::UnaryKbParams params;
    params.num_predicates = 2 + static_cast<int>(rng() % 2);
    params.num_constants = 1 + static_cast<int>(rng() % 2);
    params.num_statements = 1 + static_cast<int>(rng() % 2);
    params.num_facts = 1;
    params.max_depth = 2;

    testing::Scenario scenario;
    for (const auto& name :
         workload::GeneratorPredicates(params.num_predicates)) {
      scenario.vocabulary.AddPredicate(name, 1);
    }
    for (const auto& name :
         workload::GeneratorConstants(params.num_constants)) {
      scenario.vocabulary.AddFunction(name, 0);
    }
    scenario.kb = workload::RandomUnaryKb(params, &rng);
    scenario.queries = workload::RandomQueryBatch(params, 2, &rng);
    logic::RegisterSymbols(scenario.kb, &scenario.vocabulary);
    for (const auto& query : scenario.queries) {
      logic::RegisterSymbols(query, &scenario.vocabulary);
    }
    scenario.provenance = "planner_test case " + std::to_string(i);

    testing::DifferentialOptions options;
    options.tolerances = semantics::ToleranceVector::Uniform(0.2);
    options.domain_sizes.clear();  // finite oracle covered elsewhere
    options.check_vm = false;
    options.check_pipeline = false;
    options.check_maxent = false;
    options.check_batch = false;
    options.check_planner = true;
    options.pipeline_domain_sizes = {6, 9, 12};
    options.pipeline_tolerance_scales = {1.0, 0.5};

    testing::DifferentialReport report =
        testing::RunDifferential(scenario, options);
    EXPECT_TRUE(report.ok()) << report.Summary(scenario);
    EXPECT_GT(report.comparisons, 0);
  }
}

}  // namespace
}  // namespace rwl
