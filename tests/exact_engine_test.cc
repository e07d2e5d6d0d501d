#include "src/engines/exact_engine.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/logic/builder.h"

namespace rwl::engines {
namespace {

using logic::C;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::V;

semantics::ToleranceVector Tol(double v) {
  return semantics::ToleranceVector::Uniform(v);
}

TEST(ExactEngine, TrivialKbGivesPriorProbabilities) {
  // One unary predicate, no constants: Pr(some element is P) under the
  // uniform prior; for the query P(c) we need a constant.
  logic::Vocabulary vocab;
  vocab.AddPredicate("White", 1);
  vocab.AddConstant("B");
  ExactEngine engine;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  // Pr(White(B) | true) = 1/2 at every N: by symmetry exactly half the
  // (world, denotation) pairs satisfy it.
  for (int n = 1; n <= 4; ++n) {
    FiniteResult r = engine.DegreeAt(ctx, P("White", C("B")), n, Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    EXPECT_NEAR(r.probability, 0.5, 1e-12) << "N=" << n;
  }
}

TEST(ExactEngine, RefinedVocabularyShiftsPrior) {
  // Section 7.2: with Red/Blue refining ¬White (disjoint union), the degree
  // of belief in White(B) becomes 1/3.
  logic::Vocabulary vocab;
  vocab.AddPredicate("White", 1);
  vocab.AddPredicate("Red", 1);
  vocab.AddPredicate("Blue", 1);
  vocab.AddConstant("B");
  // ∀x (¬White ⇔ (Red ∨ Blue)) ∧ ∀x ¬(Red ∧ Blue) ∧ ∀x(White ⇒ ¬Red ∧ ¬Blue)
  FormulaPtr partition = Formula::ForAll(
      "x",
      Formula::And(
          Formula::Iff(Formula::Not(P("White", V("x"))),
                       Formula::Or(P("Red", V("x")), P("Blue", V("x")))),
          Formula::Not(Formula::And(P("Red", V("x")), P("Blue", V("x"))))));
  ExactEngine engine;
  QueryContext ctx(vocab, partition, /*caching_enabled=*/false);
  for (int n = 1; n <= 3; ++n) {
    FiniteResult r = engine.DegreeAt(ctx, P("White", C("B")), n, Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    EXPECT_NEAR(r.probability, 1.0 / 3.0, 1e-12) << "N=" << n;
  }
}

TEST(ExactEngine, UnsatisfiableKbIsUndefined) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ExactEngine engine;
  FormulaPtr kb =
      Formula::And(Formula::Exists("x", P("A", V("x"))),
                   Formula::ForAll("x", Formula::Not(P("A", V("x")))));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, P("A", V("y")), 3, Tol(0.1));
  EXPECT_FALSE(r.well_defined);
}

TEST(ExactEngine, UniqueNamesBias) {
  // Pr(c1 = c2 | true) = 1/N — the automatic unique-names bias (§5.5).
  logic::Vocabulary vocab;
  vocab.AddConstant("C1");
  vocab.AddConstant("C2");
  ExactEngine engine;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  for (int n = 2; n <= 5; ++n) {
    FiniteResult r = engine.DegreeAt(ctx, logic::Eq(C("C1"), C("C2")), n,
                                     Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    EXPECT_NEAR(r.probability, 1.0 / n, 1e-12);
  }
}

TEST(ExactEngine, LifschitzC1UniqueNames) {
  // Pr(Ray ≠ Drew | Ray = Reiter ∧ Drew = McDermott) → 1.
  logic::Vocabulary vocab;
  for (const char* name : {"Ray", "Reiter", "Drew", "McDermott"}) {
    vocab.AddConstant(name);
  }
  ExactEngine engine;
  FormulaPtr kb = Formula::And(logic::Eq(C("Ray"), C("Reiter")),
                               logic::Eq(C("Drew"), C("McDermott")));
  FormulaPtr query = Formula::Not(logic::Eq(C("Ray"), C("Drew")));
  double last = 0.0;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  for (int n = 2; n <= 5; ++n) {
    FiniteResult r = engine.DegreeAt(ctx, query, n, Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    last = r.probability;
    EXPECT_NEAR(last, 1.0 - 1.0 / n, 1e-12);
  }
  EXPECT_GT(last, 0.7);
}

TEST(ExactEngine, ThreeWayEqualityDisjunction) {
  // Pr(c1 = c2 | (c1=c2) ∨ (c2=c3) ∨ (c1=c3)) = 1/3 in the limit (§5.5).
  logic::Vocabulary vocab;
  vocab.AddConstant("C1");
  vocab.AddConstant("C2");
  vocab.AddConstant("C3");
  ExactEngine engine;
  FormulaPtr e12 = logic::Eq(C("C1"), C("C2"));
  FormulaPtr e23 = logic::Eq(C("C2"), C("C3"));
  FormulaPtr e13 = logic::Eq(C("C1"), C("C3"));
  FormulaPtr kb = Formula::Or(Formula::Or(e12, e23), e13);
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  // At finite N: Pr = (#worlds with c1=c2) / (#worlds with some pair equal).
  // #(c1=c2) = N^2 (choose the shared value and c3); #some-pair-equal =
  // 3N^2 - 2N (inclusion-exclusion).  The ratio tends to 1/3.
  for (int n = 2; n <= 6; ++n) {
    FiniteResult r = engine.DegreeAt(ctx, e12, n, Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    double expected = static_cast<double>(n) * n /
                      (3.0 * n * n - 2.0 * n);
    EXPECT_NEAR(r.probability, expected, 1e-12) << "N=" << n;
  }
}

TEST(ExactEngine, BinaryPredicateWorldCounts) {
  // One binary predicate at N=2: 2^4 = 16 worlds; Pr(R(c,c)) = 1/2.
  logic::Vocabulary vocab;
  vocab.AddPredicate("R", 2);
  vocab.AddConstant("A");
  ExactEngine engine;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, P("R", C("A"), C("A")), 2, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 0.5, 1e-12);
  EXPECT_NEAR(std::exp(r.log_denominator), 32.0, 1e-6);  // 16 worlds × 2 denotations
}

TEST(ExactEngine, SupportsRefusesHugeInstances) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("R", 2);
  ExactEngine engine(/*max_log2_worlds=*/20.0);
  // A query that actually observes the binary relation keeps the engine on
  // the world odometer, so the enumeration cap applies.
  FormulaPtr query = Formula::Exists("x", P("R", V("x"), V("x")));
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  EXPECT_TRUE(engine.Supports(ctx, query, 4));
  EXPECT_FALSE(engine.Supports(ctx, query, 8));
}

TEST(ExactEngine, CostModelReportsCountingPlansAsNearFree) {
  // The planner's min-cost mode must prefer the counting loop: for an
  // aggregate-only instance EstimateCost reports the composition count,
  // not the 2^N world odometer, and says so in the basis string.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  FormulaPtr kb = logic::ApproxLeq(logic::Prop(P("A", V("x")), {"x"}), 0.7, 1);
  FormulaPtr query =
      logic::ApproxLeq(logic::Prop(P("A", V("x")), {"x"}), 0.4, 1);
  QueryContext ctx(vocab, kb, /*caching_enabled=*/true);
  ExactEngine engine;
  CostEstimate counting = engine.EstimateCost(ctx, query, 64);
  EXPECT_NE(counting.basis.find("counting loop"), std::string::npos)
      << counting.basis;
  EXPECT_EQ(counting.error, 0.0);
  // 65 compositions at N=64, times program length — nowhere near 2^64.
  EXPECT_LT(counting.work, 1e5);

  // A non-aggregate query (it names a constant) falls back to the
  // odometer model and is astronomically more expensive.
  vocab.AddConstant("B");
  QueryContext ctx2(vocab, kb, /*caching_enabled=*/true);
  CostEstimate odometer = engine.EstimateCost(ctx2, P("A", C("B")), 64);
  EXPECT_NE(odometer.basis.find("odometer"), std::string::npos)
      << odometer.basis;
  EXPECT_GT(odometer.work, 1e15);
}

TEST(ExactEngine, CountingCollapseSupportsHugeAggregateInstances) {
  // Aggregate-only KB and query collapse to the counting loop: supported —
  // and answered exactly — at 2^64 worlds and beyond.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ExactEngine engine(/*max_log2_worlds=*/20.0);
  FormulaPtr kb = logic::ApproxLeq(logic::Prop(P("A", V("x")), {"x"}), 0.7, 1);
  FormulaPtr query =
      logic::ApproxLeq(logic::Prop(P("A", V("x")), {"x"}), 0.4, 1);
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  ASSERT_TRUE(engine.Supports(ctx, query, 500));
  FiniteResult r = engine.DegreeAt(ctx, query, 500, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  // Pr(#A/N <= 0.5 | #A/N <= 0.8) at N=500: binomial mass ratio.
  EXPECT_GT(r.probability, 0.5);
  EXPECT_LE(r.probability, 1.0);
}

TEST(ExactEngine, StatisticalConjunctRestrictsWorlds) {
  // KB: ||A(x)||_x ≈ 0.5 with τ = 0.1 at N = 4 keeps only worlds with
  // exactly 2 of 4 elements in A: C(4,2) = 6 of 16.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ExactEngine engine;
  FormulaPtr kb = logic::ApproxEq(logic::Prop(P("A", V("x")), {"x"}), 0.5, 1);
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 4, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(std::exp(r.log_denominator), 6.0, 1e-6);
}

}  // namespace
}  // namespace rwl::engines
