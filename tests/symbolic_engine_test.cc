#include "src/engines/symbolic_engine.h"

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/logic/builder.h"
#include "src/logic/transform.h"

namespace rwl::engines {
namespace {

using logic::C;
using logic::CondProp;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::Prop;
using logic::V;

TEST(AnalyzeKbTest, ExtractsPointStatistics) {
  FormulaPtr kb = Formula::And(
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1));
  KbAnalysis analysis = AnalyzeKb(kb);
  ASSERT_EQ(analysis.stats.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.stats[0].lo, 0.8);
  EXPECT_DOUBLE_EQ(analysis.stats[0].hi, 0.8);
  EXPECT_EQ(analysis.conjuncts.size(), 2u);
  EXPECT_FALSE(analysis.is_stat_conjunct[0]);
  EXPECT_TRUE(analysis.is_stat_conjunct[1]);
}

TEST(AnalyzeKbTest, MergesIntervalPairs) {
  // 0.7 ⪯₁ e ⪯₂ 0.8 arrives as two conjuncts over the same expression.
  FormulaPtr kb = logic::InInterval(
      0.7, 1, CondProp(P("Chirps", V("x")), P("Bird", V("x")), {"x"}), 0.8,
      2);
  KbAnalysis analysis = AnalyzeKb(kb);
  ASSERT_EQ(analysis.stats.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.stats[0].lo, 0.7);
  EXPECT_DOUBLE_EQ(analysis.stats[0].hi, 0.8);
  EXPECT_EQ(analysis.stats[0].source_conjuncts.size(), 2u);
}

TEST(MatchExistsUniqueTest, RecognizesBuilderOutput) {
  FormulaPtr f = logic::ExistsUnique(
      "x", Formula::And(P("Quaker", V("x")), P("Republican", V("x"))));
  auto parts = MatchExistsUnique(f);
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->var, "x");
  EXPECT_EQ(parts->body->kind(), Formula::Kind::kAnd);
}

TEST(MatchExistsUniqueTest, RejectsPlainExists) {
  FormulaPtr f = Formula::Exists("x", P("Winner", V("x")));
  EXPECT_FALSE(MatchExistsUnique(f).has_value());
}

class SymbolicEngineTest : public ::testing::Test {
 protected:
  // Answers through a cache-free context, the reference path.
  SymbolicAnswer Infer(const FormulaPtr& kb, const FormulaPtr& query) const {
    logic::Vocabulary vocabulary;
    logic::RegisterSymbols(kb, &vocabulary);
    logic::RegisterSymbols(query, &vocabulary);
    QueryContext ctx(std::move(vocabulary), kb, /*caching_enabled=*/false);
    return engine_.Infer(ctx, query);
  }

  SymbolicEngine engine_;
};

TEST_F(SymbolicEngineTest, DirectInferenceHepatitis) {
  // Example 5.8 without extras.
  FormulaPtr kb = Formula::And(
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1));
  SymbolicAnswer answer = Infer(kb, P("Hep", C("Eric")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval);
  EXPECT_DOUBLE_EQ(answer.lo, 0.8);
  EXPECT_DOUBLE_EQ(answer.hi, 0.8);
}

TEST_F(SymbolicEngineTest, DirectInferenceIgnoresOtherIndividuals) {
  // Example 5.8: Pr(Hep(Eric) | KB ∧ Hep(Tom)) = 0.8 — Theorem 5.6 still
  // applies because Tom ≠ Eric.
  FormulaPtr kb = Formula::AndAll({
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1),
      P("Hep", C("Tom")),
  });
  SymbolicAnswer answer = Infer(kb, P("Hep", C("Eric")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval);
  EXPECT_DOUBLE_EQ(answer.lo, 0.8);
}

TEST_F(SymbolicEngineTest, DirectInferenceBlocksWhenConstantLeaks) {
  // If the KB mentions Eric elsewhere in a way the theorem's side condition
  // forbids, Theorem 5.6 must not fire on that stat (here: a second fact
  // about Eric involving the target predicate's vocabulary is fine for
  // 5.16 but kills the 5.6 match).
  FormulaPtr kb = Formula::AndAll({
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1),
      P("Hep", C("Eric")),
  });
  KbAnalysis analysis = AnalyzeKb(kb);
  EXPECT_FALSE(engine_.TryDirectInference(analysis, P("Hep", C("Eric")))
                   .has_value());
}

TEST_F(SymbolicEngineTest, MinimalClassIgnoresIrrelevantFacts) {
  // Example 5.18: extra facts Fever(Eric), Tall(Eric) are ignored.
  FormulaPtr kb = Formula::AndAll({
      P("Jaun", C("Eric")),
      P("Fever", C("Eric")),
      P("Tall", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1),
  });
  SymbolicAnswer answer = Infer(kb, P("Hep", C("Eric")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_DOUBLE_EQ(answer.lo, 0.8);
  EXPECT_DOUBLE_EQ(answer.hi, 0.8);
  EXPECT_NE(answer.rule.find("5.16"), std::string::npos);
}

TEST_F(SymbolicEngineTest, SpecificityPrefersSubclass) {
  // Example 5.18 continued: with statistics for Jaun ∧ Fever, the more
  // specific class wins.
  FormulaPtr kb = Formula::AndAll({
      P("Jaun", C("Eric")),
      P("Fever", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1),
      logic::ApproxEq(
          CondProp(P("Hep", V("x")),
                   Formula::And(P("Jaun", V("x")), P("Fever", V("x"))),
                   {"x"}),
          1.0, 2),
  });
  SymbolicAnswer answer = Infer(kb, P("Hep", C("Eric")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_DOUBLE_EQ(answer.lo, 1.0);
}

TEST_F(SymbolicEngineTest, TweetyThePenguinDoesNotFly) {
  // Example 5.10.
  FormulaPtr kb = Formula::AndAll({
      logic::Default(P("Bird", V("x")), P("Fly", V("x")), {"x"}, 1),
      logic::ApproxEq(CondProp(P("Fly", V("x")), P("Penguin", V("x")),
                               {"x"}),
                      0.0, 2),
      Formula::ForAll("x", Formula::Implies(P("Penguin", V("x")),
                                            P("Bird", V("x")))),
      P("Penguin", C("Tweety")),
  });
  SymbolicAnswer answer = Infer(kb, P("Fly", C("Tweety")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_DOUBLE_EQ(answer.lo, 0.0);
  EXPECT_DOUBLE_EQ(answer.hi, 0.0);
}

TEST_F(SymbolicEngineTest, YellowPenguinStillDoesNotFly) {
  // Example 5.19: irrelevant Yellow(Tweety).
  FormulaPtr kb = Formula::AndAll({
      logic::Default(P("Bird", V("x")), P("Fly", V("x")), {"x"}, 1),
      logic::ApproxEq(CondProp(P("Fly", V("x")), P("Penguin", V("x")),
                               {"x"}),
                      0.0, 2),
      Formula::ForAll("x", Formula::Implies(P("Penguin", V("x")),
                                            P("Bird", V("x")))),
      P("Penguin", C("Tweety")),
      P("Yellow", C("Tweety")),
  });
  SymbolicAnswer answer = Infer(kb, P("Fly", C("Tweety")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_DOUBLE_EQ(answer.hi, 0.0);
}

TEST_F(SymbolicEngineTest, ExceptionalSubclassInheritance) {
  // Example 5.20: Tweety the penguin is still warm-blooded.
  FormulaPtr kb = Formula::AndAll({
      logic::Default(P("Bird", V("x")), P("Fly", V("x")), {"x"}, 1),
      logic::ApproxEq(CondProp(P("Fly", V("x")), P("Penguin", V("x")),
                               {"x"}),
                      0.0, 2),
      logic::Default(P("Bird", V("x")), P("WarmBlooded", V("x")), {"x"}, 3),
      Formula::ForAll("x", Formula::Implies(P("Penguin", V("x")),
                                            P("Bird", V("x")))),
      P("Penguin", C("Tweety")),
  });
  SymbolicAnswer answer = Infer(kb, P("WarmBlooded", C("Tweety")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_DOUBLE_EQ(answer.lo, 1.0);
}

TEST_F(SymbolicEngineTest, DrowningProblemSolved) {
  // Example 5.21: the yellow penguin is easy to see.
  FormulaPtr kb = Formula::AndAll({
      logic::Default(P("Bird", V("x")), P("Fly", V("x")), {"x"}, 1),
      logic::ApproxEq(CondProp(P("Fly", V("x")), P("Penguin", V("x")),
                               {"x"}),
                      0.0, 2),
      logic::Default(P("Yellow", V("x")), P("EasyToSee", V("x")), {"x"}, 3),
      Formula::ForAll("x", Formula::Implies(P("Penguin", V("x")),
                                            P("Bird", V("x")))),
      P("Penguin", C("Tweety")),
      P("Yellow", C("Tweety")),
  });
  SymbolicAnswer answer = Infer(kb, P("EasyToSee", C("Tweety")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_DOUBLE_EQ(answer.lo, 1.0);
}

TEST_F(SymbolicEngineTest, StrengthRuleChirpsInterval) {
  // Example 5.24: Pr(Chirps(Tweety)) ∈ [0.7, 0.8].
  FormulaPtr kb = Formula::AndAll({
      logic::InInterval(0.7, 1,
                        CondProp(P("Chirps", V("x")), P("Bird", V("x")),
                                 {"x"}),
                        0.8, 2),
      logic::InInterval(0.0, 3,
                        CondProp(P("Chirps", V("x")), P("Magpie", V("x")),
                                 {"x"}),
                        0.99, 4),
      Formula::ForAll("x", Formula::Implies(P("Magpie", V("x")),
                                            P("Bird", V("x")))),
      P("Magpie", C("Tweety")),
  });
  SymbolicAnswer answer = Infer(kb, P("Chirps", C("Tweety")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_DOUBLE_EQ(answer.lo, 0.7);
  EXPECT_DOUBLE_EQ(answer.hi, 0.8);
}

TEST_F(SymbolicEngineTest, NixonDiamondDempster) {
  // Theorem 5.26 with α = β = 0.8: δ = 0.64/0.68 ≈ 0.941.
  FormulaPtr quaker_republican =
      Formula::And(P("Quaker", V("x")), P("Republican", V("x")));
  FormulaPtr kb = Formula::AndAll({
      logic::ApproxEq(CondProp(P("Pacifist", V("x")), P("Quaker", V("x")),
                               {"x"}),
                      0.8, 1),
      logic::ApproxEq(CondProp(P("Pacifist", V("x")),
                               P("Republican", V("x")), {"x"}),
                      0.8, 2),
      P("Quaker", C("Nixon")),
      P("Republican", C("Nixon")),
      logic::ExistsUnique("x", quaker_republican),
  });
  SymbolicAnswer answer = Infer(kb, P("Pacifist", C("Nixon")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_NEAR(answer.lo, 0.64 / 0.68, 1e-12);
}

TEST_F(SymbolicEngineTest, NixonDiamondNeutralEvidenceDropsOut) {
  // β = 0.5 (neutral Republicans): answer = α.
  FormulaPtr kb = Formula::AndAll({
      logic::ApproxEq(CondProp(P("Pacifist", V("x")), P("Quaker", V("x")),
                               {"x"}),
                      0.7, 1),
      logic::ApproxEq(CondProp(P("Pacifist", V("x")),
                               P("Republican", V("x")), {"x"}),
                      0.5, 2),
      P("Quaker", C("Nixon")),
      P("Republican", C("Nixon")),
      logic::ExistsUnique("x", Formula::And(P("Quaker", V("x")),
                                            P("Republican", V("x")))),
  });
  SymbolicAnswer answer = Infer(kb, P("Pacifist", C("Nixon")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval);
  EXPECT_NEAR(answer.lo, 0.7, 1e-12);
}

TEST_F(SymbolicEngineTest, ConflictingDefaultsHaveNoLimit) {
  // α = 1, β = 0 with distinct tolerances: nonexistent.
  FormulaPtr kb = Formula::AndAll({
      logic::ApproxEq(CondProp(P("Pacifist", V("x")), P("Quaker", V("x")),
                               {"x"}),
                      1.0, 1),
      logic::ApproxEq(CondProp(P("Pacifist", V("x")),
                               P("Republican", V("x")), {"x"}),
                      0.0, 2),
      P("Quaker", C("Nixon")),
      P("Republican", C("Nixon")),
      logic::ExistsUnique("x", Formula::And(P("Quaker", V("x")),
                                            P("Republican", V("x")))),
  });
  SymbolicAnswer answer = Infer(kb, P("Pacifist", C("Nixon")));
  EXPECT_EQ(answer.status, SymbolicAnswer::Status::kNonexistent);
}

TEST_F(SymbolicEngineTest, EqualStrengthConflictGivesHalf) {
  // Same tolerance subscript on both defaults: Pr = 1/2 (§5.3).
  FormulaPtr kb = Formula::AndAll({
      logic::ApproxEq(CondProp(P("Pacifist", V("x")), P("Quaker", V("x")),
                               {"x"}),
                      1.0, 1),
      logic::ApproxEq(CondProp(P("Pacifist", V("x")),
                               P("Republican", V("x")), {"x"}),
                      0.0, 1),
      P("Quaker", C("Nixon")),
      P("Republican", C("Nixon")),
      logic::ExistsUnique("x", Formula::And(P("Quaker", V("x")),
                                            P("Republican", V("x")))),
  });
  SymbolicAnswer answer = Infer(kb, P("Pacifist", C("Nixon")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval);
  EXPECT_DOUBLE_EQ(answer.lo, 0.5);
}

TEST_F(SymbolicEngineTest, IndependenceProductRule) {
  // Example 5.28: Pr(Hep(Eric) ∧ Over60(Eric)) = 0.8 × 0.4.
  FormulaPtr kb = Formula::AndAll({
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1),
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Over60", V("x")), P("Patient", V("x")),
                               {"x"}),
                      0.4, 5),
      P("Patient", C("Eric")),
  });
  SymbolicAnswer answer = Infer(
      kb, Formula::And(P("Hep", C("Eric")), P("Over60", C("Eric"))));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_NEAR(answer.lo, 0.32, 1e-12);
  EXPECT_NEAR(answer.hi, 0.32, 1e-12);
}

TEST_F(SymbolicEngineTest, IndependenceRefusesEntangledVocabularies) {
  // Both queries use Hep: no split possible.
  FormulaPtr kb = Formula::AndAll({
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1),
      P("Jaun", C("Eric")),
      P("Jaun", C("Tom")),
  });
  KbAnalysis analysis = AnalyzeKb(kb);
  auto answer = engine_.TryIndependence(
      analysis, Formula::And(P("Hep", C("Eric")), P("Hep", C("Tom"))), 0);
  EXPECT_FALSE(answer.has_value());
}

TEST_F(SymbolicEngineTest, NonUnaryElephantZookeeper) {
  // Example 5.12: two-variable direct inference.
  logic::TermPtr x = V("x");
  logic::TermPtr y = V("y");
  FormulaPtr elephant_zookeeper =
      Formula::And(P("Elephant", x), P("Zookeeper", y));
  FormulaPtr kb = Formula::AndAll({
      logic::ApproxEq(CondProp(P("Likes", x, y), elephant_zookeeper,
                               {"x", "y"}),
                      1.0, 1),
      logic::ApproxEq(CondProp(P("Likes", x, C("Fred")), P("Elephant", x),
                               {"x"}),
                      0.0, 2),
      P("Zookeeper", C("Fred")),
      P("Elephant", C("Clyde")),
      P("Zookeeper", C("Eric")),
  });
  // Does Clyde like Eric?  Theorem 5.6 with the pair class.
  SymbolicAnswer likes_eric =
      Infer(kb, P("Likes", C("Clyde"), C("Eric")));
  ASSERT_EQ(likes_eric.status, SymbolicAnswer::Status::kInterval)
      << likes_eric.explanation;
  EXPECT_DOUBLE_EQ(likes_eric.lo, 1.0);

  // Does Clyde like Fred?  The Fred-specific statistic applies.
  SymbolicAnswer likes_fred =
      Infer(kb, P("Likes", C("Clyde"), C("Fred")));
  ASSERT_EQ(likes_fred.status, SymbolicAnswer::Status::kInterval)
      << likes_fred.explanation;
  EXPECT_DOUBLE_EQ(likes_fred.hi, 0.0);
}

TEST_F(SymbolicEngineTest, QuantifiedDefaultTallParent) {
  // Example 5.13: people with a tall parent are typically tall.
  logic::TermPtr x = V("x");
  FormulaPtr has_tall_parent = Formula::Exists(
      "y", Formula::And(P("Child", x, V("y")), P("Tall", V("y"))));
  FormulaPtr kb = Formula::And(
      logic::Default(has_tall_parent, P("Tall", x), {"x"}, 1),
      Formula::Exists("y", Formula::And(P("Child", C("Alice"), V("y")),
                                        P("Tall", V("y")))));
  SymbolicAnswer answer = Infer(kb, P("Tall", C("Alice")));
  ASSERT_EQ(answer.status, SymbolicAnswer::Status::kInterval)
      << answer.explanation;
  EXPECT_DOUBLE_EQ(answer.lo, 1.0);
}

TEST_F(SymbolicEngineTest, InapplicableWhenNothingMatches) {
  FormulaPtr kb = P("A", C("K"));
  SymbolicAnswer answer = Infer(kb, P("B", C("K")));
  EXPECT_EQ(answer.status, SymbolicAnswer::Status::kInapplicable);
}

}  // namespace
}  // namespace rwl::engines
