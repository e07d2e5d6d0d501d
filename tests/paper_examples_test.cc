// End-to-end reproduction of the paper's worked examples through the public
// Inference facade (exactly what EXPERIMENTS.md records).  Each test names
// the example it reproduces and asserts the paper's reported value.
#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/logic/builder.h"

namespace rwl {
namespace {

using logic::C;
using logic::CondProp;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::Prop;
using logic::V;

InferenceOptions FastOptions() {
  InferenceOptions options;
  options.tolerances = semantics::ToleranceVector::Uniform(0.04);
  options.limit.domain_sizes = {16, 32, 48};
  options.limit.tolerance_scales = {1.0, 0.5};
  return options;
}

TEST(PaperExamples, E5_8_DirectInference) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "Jaun(Eric)\n"
      "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"
      "#(Hep(x))[x] <~_2 0.05\n"
      "#(Hep(x) ; Jaun(x) & Fever(x))[x] ~=_3 1\n"));
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", FastOptions());
  ASSERT_EQ(answer.status, Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.8, 0.03);
}

TEST(PaperExamples, E5_8_OtherIndividualsIgnored) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "Jaun(Eric)\n"
      "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"
      "Hep(Tom)\n"));
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", FastOptions());
  ASSERT_EQ(answer.status, Answer::Status::kPoint);
  EXPECT_NEAR(answer.value, 0.8, 0.03);
}

TEST(PaperExamples, E5_11_DisjunctiveReferenceClassHarmless) {
  // The spurious class Jaun ∧ (¬Hep ∨ x = Eric) cannot shift the answer:
  // computed numerically by the profile engine (the class mentions Eric, so
  // no symbolic shortcut applies).
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "Jaun(Eric)\n"
      "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"));
  InferenceOptions options = FastOptions();
  options.strategies.Remove("symbolic");
  options.limit.domain_sizes = {24, 48};
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)", options);
  ASSERT_EQ(answer.status, Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.8, 0.05);
}

TEST(PaperExamples, E5_10_TweetyDoesNotFly) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(Fly(x) ; Bird(x))[x] ~=_1 1\n"
      "#(Fly(x) ; Penguin(x))[x] ~=_2 0\n"
      "forall x. (Penguin(x) => Bird(x))\n"
      "Penguin(Tweety)\n"));
  Answer answer = DegreeOfBelief(kb, "Fly(Tweety)", FastOptions());
  ASSERT_TRUE(answer.status == Answer::Status::kPoint);
  EXPECT_NEAR(answer.value, 0.0, 0.03);
}

TEST(PaperExamples, E5_15_OpusThePenguinSwims) {
  // The taxonomy example: the minimal class (penguins) supplies 0.9.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(Swims(x) ; Penguin(x))[x] ~=_1 0.9\n"
      "#(Swims(x) ; Sparrow(x))[x] ~=_2 0.01\n"
      "#(Swims(x) ; Bird(x))[x] ~=_3 0.05\n"
      "#(Swims(x) ; Animal(x))[x] ~=_4 0.3\n"
      "#(Swims(x) ; Fish(x))[x] ~=_5 1\n"
      "forall x. (Penguin(x) => Bird(x))\n"
      "forall x. (Sparrow(x) => Bird(x))\n"
      "forall x. (Bird(x) => Animal(x))\n"
      "forall x. (Fish(x) => Animal(x))\n"
      "forall x. (Penguin(x) => !Sparrow(x))\n"
      "forall x. (Bird(x) => !Fish(x))\n"
      "Penguin(Opus)\n"
      "Black(Opus)\n"
      "LargeNose(Opus)\n"));
  Answer answer = DegreeOfBelief(kb, "Swims(Opus)", FastOptions());
  ASSERT_TRUE(answer.status == Answer::Status::kPoint ||
              answer.status == Answer::Status::kInterval)
      << answer.explanation;
  EXPECT_NEAR(answer.lo, 0.9, 0.03);
  EXPECT_NEAR(answer.hi, 0.9, 0.03);
}

TEST(PaperExamples, E5_22_TaySachsDisjunctiveClass) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(TS(x) ; EEJ(x) | FC(x))[x] ~= 0.02\n"
      "EEJ(Eric)\n"));
  Answer answer = DegreeOfBelief(kb, "TS(Eric)", FastOptions());
  ASSERT_TRUE(answer.status == Answer::Status::kPoint ||
              answer.status == Answer::Status::kInterval)
      << answer.explanation;
  EXPECT_NEAR(answer.lo, 0.02, 0.02);
  EXPECT_NEAR(answer.hi, 0.02, 0.02);
}

TEST(PaperExamples, E5_24_ChirpsStrengthInterval) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "(0.7 <~_1 #(Chirps(x) ; Bird(x))[x]) & "
      "(#(Chirps(x) ; Bird(x))[x] <~_2 0.8)\n"
      "(0 <~_3 #(Chirps(x) ; Magpie(x))[x]) & "
      "(#(Chirps(x) ; Magpie(x))[x] <~_4 0.99)\n"
      "forall x. (Magpie(x) => Bird(x))\n"
      "Magpie(Tweety)\n"));
  // The theorem guarantees Pr_∞ ∈ [0.7, 0.8]; the numeric sweep may sharpen
  // the interval to a point inside it.
  InferenceOptions options = FastOptions();
  // The symbolic answer is the paper's claim.
  options.strategies.Remove("profile").Remove("maxent").Remove("exact");
  Answer answer = DegreeOfBelief(kb, "Chirps(Tweety)", options);
  ASSERT_EQ(answer.status, Answer::Status::kInterval) << answer.explanation;
  EXPECT_NEAR(answer.lo, 0.7, 1e-9);
  EXPECT_NEAR(answer.hi, 0.8, 1e-9);

  // And the numeric estimate falls inside the interval.
  InferenceOptions numeric = FastOptions();
  numeric.strategies.Remove("symbolic");
  numeric.limit.domain_sizes = {16, 24};
  numeric.limit.tolerance_scales = {1.0};
  Answer point = DegreeOfBelief(kb, "Chirps(Tweety)", numeric);
  ASSERT_EQ(point.status, Answer::Status::kPoint) << point.explanation;
  EXPECT_GE(point.value, 0.7 - 0.05);
  EXPECT_LE(point.value, 0.8 + 0.05);
}

TEST(PaperExamples, E5_25_MoodyMagpiesNotIgnored) {
  // Goodwin's example: random worlds pulls the answer below 0.9.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(Chirps(x) ; Bird(x))[x] ~=_1 0.9\n"
      "#(Chirps(x) ; Magpie(x) & Moody(x))[x] ~=_2 0.2\n"
      "forall x. (Magpie(x) => Bird(x))\n"
      "Magpie(Tweety)\n"));
  InferenceOptions options = FastOptions();
  options.strategies.Remove("symbolic");  // force the numeric path
  options.limit.domain_sizes = {10, 12};
  options.limit.tolerance_scales = {1.0};
  Answer answer = DegreeOfBelief(kb, "Chirps(Tweety)", options);
  ASSERT_EQ(answer.status, Answer::Status::kPoint) << answer.explanation;
  // The moody-magpie statistic pulls the value strictly below the 0.9 that
  // reference-class reasoning would give (the effect is small but real).
  EXPECT_LT(answer.value, 0.9);
  EXPECT_GT(answer.value, 0.5);
}

TEST(PaperExamples, NixonDiamondQuantitative) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(Pacifist(x) ; Quaker(x))[x] ~=_1 0.8\n"
      "#(Pacifist(x) ; Republican(x))[x] ~=_2 0.8\n"
      "Quaker(Nixon)\n"
      "Republican(Nixon)\n"
      "exists! x. (Quaker(x) & Republican(x))\n"));
  Answer answer = DegreeOfBelief(kb, "Pacifist(Nixon)", FastOptions());
  ASSERT_EQ(answer.status, Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.64 / 0.68, 0.01);
}

TEST(PaperExamples, NixonDiamondConflictingDefaults) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(Pacifist(x) ; Quaker(x))[x] ~=_1 1\n"
      "#(Pacifist(x) ; Republican(x))[x] ~=_2 0\n"
      "Quaker(Nixon)\n"
      "Republican(Nixon)\n"
      "exists! x. (Quaker(x) & Republican(x))\n"));
  Answer answer = DegreeOfBelief(kb, "Pacifist(Nixon)", FastOptions());
  EXPECT_EQ(answer.status, Answer::Status::kNonexistent);
}

TEST(PaperExamples, E5_28_Independence) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(Hep(x) ; Jaun(x))[x] ~=_1 0.8\n"
      "Jaun(Eric)\n"
      "#(Over60(x) ; Patient(x))[x] ~=_5 0.4\n"
      "Patient(Eric)\n"));
  Answer answer =
      DegreeOfBelief(kb, "Hep(Eric) & Over60(Eric)", FastOptions());
  ASSERT_TRUE(answer.status == Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.32, 0.02);
}

TEST(PaperExamples, E4_4_ElephantZookeeper) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(Likes(x, y) ; Elephant(x) & Zookeeper(y))[x,y] ~=_1 1\n"
      "#(Likes(x, Fred) ; Elephant(x))[x] ~=_2 0\n"
      "Zookeeper(Fred)\n"
      "Elephant(Clyde)\n"
      "Zookeeper(Eric)\n"));
  Answer likes_eric = DegreeOfBelief(kb, "Likes(Clyde, Eric)", FastOptions());
  ASSERT_TRUE(likes_eric.status == Answer::Status::kPoint)
      << likes_eric.explanation;
  EXPECT_NEAR(likes_eric.value, 1.0, 1e-9);

  Answer likes_fred = DegreeOfBelief(kb, "Likes(Clyde, Fred)", FastOptions());
  ASSERT_TRUE(likes_fred.status == Answer::Status::kPoint)
      << likes_fred.explanation;
  EXPECT_NEAR(likes_fred.value, 0.0, 1e-9);
}

TEST(PaperExamples, E5_14_NestedDefaultsAliceRisesLate) {
  // Typically, people who normally go to bed late normally rise late;
  // Alice normally goes to bed late ⇒ she normally rises late.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(#(RisesLate(x, y) ; Day(y))[y] ~=_1 1 ; "
      "#(ToBedLate(x, y2) ; Day(y2))[y2] ~=_2 1)[x] ~=_3 1\n"
      "#(ToBedLate(Alice, y2) ; Day(y2))[y2] ~=_2 1\n"));
  Answer answer = DegreeOfBelief(
      kb, "#(RisesLate(Alice, y) ; Day(y))[y] ~=_1 1", FastOptions());
  ASSERT_TRUE(answer.status == Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 1.0, 1e-9);
}

TEST(PaperExamples, Section7_2_RepresentationDependence) {
  // Pr(White(b)) = 1/2 with one predicate...
  KnowledgeBase plain;
  plain.mutable_vocabulary().AddPredicate("White", 1);
  plain.mutable_vocabulary().AddConstant("B");
  Answer white = DegreeOfBelief(plain, "White(B)", FastOptions());
  ASSERT_TRUE(white.status == Answer::Status::kPoint) << white.explanation;
  EXPECT_NEAR(white.value, 0.5, 0.01);

  // ...but 1/3 after refining ¬White into Red ⊎ Blue.
  KnowledgeBase refined;
  ASSERT_TRUE(refined.AddParsed(
      "forall x. (!White(x) <=> (Red(x) | Blue(x)))\n"
      "forall x. !(Red(x) & Blue(x))\n"));
  refined.mutable_vocabulary().AddConstant("B");
  Answer white3 = DegreeOfBelief(refined, "White(B)", FastOptions());
  ASSERT_TRUE(white3.status == Answer::Status::kPoint) << white3.explanation;
  EXPECT_NEAR(white3.value, 1.0 / 3.0, 0.01);
}

TEST(PaperExamples, Section7_2_FlyingBirdVariant) {
  // Half of birds fly; Tweety is a bird, Opus is something.
  // Pr(Fly(Tweety)) = 0.5 in both representations; Pr(Bird(Opus)) moves
  // from 1/2 to 2/3 under the FlyingBird encoding.
  KnowledgeBase direct;
  ASSERT_TRUE(direct.AddParsed(
      "#(Fly(x) ; Bird(x))[x] ~= 0.5\n"
      "Bird(Tweety)\n"));
  direct.mutable_vocabulary().AddConstant("Opus");
  Answer fly = DegreeOfBelief(direct, "Fly(Tweety)", FastOptions());
  ASSERT_TRUE(fly.status == Answer::Status::kPoint) << fly.explanation;
  EXPECT_NEAR(fly.value, 0.5, 0.02);
  // Pr(Bird(Opus)) converges to 1/2 slowly (conditioning on Bird(Tweety)
  // size-biases the bird class at finite N), so allow a wider band and use
  // larger domains.
  InferenceOptions big = FastOptions();
  big.limit.domain_sizes = {64, 96, 128};
  big.limit.tolerance_scales = {1.0};
  Answer bird = DegreeOfBelief(direct, "Bird(Opus)", big);
  ASSERT_TRUE(bird.status == Answer::Status::kPoint);
  EXPECT_NEAR(bird.value, 0.5, 0.05);

  KnowledgeBase flying_bird;
  ASSERT_TRUE(flying_bird.AddParsed(
      "#(FlyingBird(x) ; Bird(x))[x] ~= 0.5\n"
      "Bird(Tweety)\n"
      "forall x. (FlyingBird(x) => Bird(x))\n"));
  flying_bird.mutable_vocabulary().AddConstant("Opus");
  Answer fb = DegreeOfBelief(flying_bird, "FlyingBird(Tweety)",
                             FastOptions());
  ASSERT_TRUE(fb.status == Answer::Status::kPoint) << fb.explanation;
  EXPECT_NEAR(fb.value, 0.5, 0.02);
  Answer bird2 = DegreeOfBelief(flying_bird, "Bird(Opus)", FastOptions());
  ASSERT_TRUE(bird2.status == Answer::Status::kPoint);
  EXPECT_NEAR(bird2.value, 2.0 / 3.0, 0.02);
}

}  // namespace
}  // namespace rwl
