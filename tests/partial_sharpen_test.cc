// The kPartial interval-sharpening contract: a sound symbolic interval
// (from interval-valued statistics) survives as the answer when no
// numeric strategy applies, and is sharpened to a point by a later
// numeric strategy when one does — with both methods credited.
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/planner.h"
#include "src/logic/parser.h"

namespace rwl {
namespace {

// Interval statistics: 70-90% of birds fly, Tweety is a bird.  Direct
// inference gives Pr ∈ [0.7, 0.9]; the profile sweep pins the point.
KnowledgeBase IntervalBirdKb() {
  KnowledgeBase kb;
  std::string error;
  EXPECT_TRUE(kb.AddParsed("#(Fly(x) ; Bird(x))[x] >~ 0.7\n"
                           "#(Fly(x) ; Bird(x))[x] <~ 0.9\n"
                           "Bird(Tweety)\n",
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

const PlanStep* RanStep(const Answer& answer, const std::string& strategy) {
  if (answer.plan == nullptr) return nullptr;
  for (const PlanStep& step : answer.plan->steps) {
    if (step.strategy == strategy &&
        step.action == PlanStep::Action::kRan) {
      return &step;
    }
  }
  return nullptr;
}

TEST(PartialSharpenTest, SymbolicAloneYieldsTheInterval) {
  KnowledgeBase kb = IntervalBirdKb();
  InferenceOptions options = FastOptions();
  options.strategies.Remove("profile").Remove("maxent").Remove("exact");
  Answer answer = DegreeOfBelief(kb, "Fly(Tweety)", options);
  ASSERT_EQ(answer.status, Answer::Status::kInterval);
  EXPECT_NEAR(answer.lo, 0.7, 0.06);
  EXPECT_NEAR(answer.hi, 0.9, 0.06);
  // The symbolic strategy reported kPartial; with nothing to sharpen it,
  // the interval survives as the final answer.
  const PlanStep* symbolic = RanStep(answer, "symbolic");
  ASSERT_NE(symbolic, nullptr);
  EXPECT_EQ(symbolic->outcome, "partial");
}

TEST(PartialSharpenTest, NumericStrategySharpensTheInterval) {
  KnowledgeBase kb = IntervalBirdKb();
  InferenceOptions options = FastOptions();

  // Symbolic-only answer for the containment assertion below.
  InferenceOptions symbolic_only = options;
  symbolic_only.strategies.Remove("profile").Remove("maxent").Remove("exact");
  Answer interval = DegreeOfBelief(kb, "Fly(Tweety)", symbolic_only);
  ASSERT_EQ(interval.status, Answer::Status::kInterval);

  Answer sharpened = DegreeOfBelief(kb, "Fly(Tweety)", options);
  ASSERT_EQ(sharpened.status, Answer::Status::kPoint);
  // The point lands inside (a slightly widened copy of) the interval.
  EXPECT_GE(sharpened.value, interval.lo - 0.05);
  EXPECT_LE(sharpened.value, interval.hi + 0.05);
  // Both strategies are credited in the method string.
  EXPECT_NE(sharpened.method.find("5.6"), std::string::npos)
      << sharpened.method;
  EXPECT_NE(sharpened.method.find("profile"), std::string::npos)
      << sharpened.method;
  // And the plan trace shows the partial → final fallthrough.
  const PlanStep* symbolic = RanStep(sharpened, "symbolic");
  ASSERT_NE(symbolic, nullptr);
  EXPECT_EQ(symbolic->outcome, "partial");
  const PlanStep* profile = RanStep(sharpened, "profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->outcome, "final");
}

TEST(PartialSharpenTest, CustomRegistryPreservesThePartialContract) {
  // A registry with only the symbolic strategy: the partial interval is
  // the best available answer through the planner's fallback path.
  KnowledgeBase kb = IntervalBirdKb();
  InferenceOptions options = FastOptions();
  logic::FormulaPtr query = logic::ParseFormula("Fly(Tweety)").formula;
  QueryContext ctx = MakeQueryContext(
      kb, std::span<const logic::FormulaPtr>(&query, 1), options);

  EngineRegistry registry;
  registry.Register(0, EngineRegistry::Default().Find("symbolic"));
  Answer symbolic_only = registry.Infer(ctx, query, options);
  EXPECT_EQ(symbolic_only.status, Answer::Status::kInterval);

  // Adding the profile strategy sharpens it through the same planner.
  registry.Register(10, EngineRegistry::Default().Find("profile"));
  Answer sharpened = registry.Infer(ctx, query, options);
  EXPECT_EQ(sharpened.status, Answer::Status::kPoint);
}

}  // namespace
}  // namespace rwl
