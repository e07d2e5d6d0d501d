#include "src/core/inference.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/logic/builder.h"
#include "src/logic/parser.h"
#include "src/logic/printer.h"

namespace rwl {
namespace {

TEST(KnowledgeBaseTest, AddRegistersSymbols) {
  KnowledgeBase kb;
  kb.Add(logic::P("Bird", logic::C("Tweety")));
  EXPECT_TRUE(kb.vocabulary().FindPredicate("Bird").has_value());
  EXPECT_TRUE(kb.vocabulary().FindFunction("Tweety").has_value());
  EXPECT_EQ(kb.conjuncts().size(), 1u);
}

TEST(KnowledgeBaseTest, AddFlattensConjunctions) {
  KnowledgeBase kb;
  kb.Add(logic::Formula::And(logic::P("A", logic::C("K")),
                             logic::P("B", logic::C("K"))));
  EXPECT_EQ(kb.conjuncts().size(), 2u);
}

TEST(KnowledgeBaseTest, ParseErrorsReported) {
  KnowledgeBase kb;
  std::string error;
  EXPECT_FALSE(kb.AddParsed("Bird(", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(kb.conjuncts().empty());
}

TEST(KnowledgeBaseTest, ToStringRoundTrips) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("Bird(Tweety)\n#(Fly(x) ; Bird(x))[x] ~= 0.9\n"));
  KnowledgeBase copy;
  ASSERT_TRUE(copy.AddParsed(kb.ToString()));
  EXPECT_EQ(kb.conjuncts().size(), copy.conjuncts().size());
  for (size_t i = 0; i < kb.conjuncts().size(); ++i) {
    EXPECT_TRUE(logic::Formula::StructuralEqual(kb.conjuncts()[i],
                                                copy.conjuncts()[i]));
  }
}

TEST(InferenceTest, RoutesToSymbolicForPointAnswers) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "Jaun(Eric)\n#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"));
  Answer answer = DegreeOfBelief(kb, "Hep(Eric)");
  ASSERT_EQ(answer.status, Answer::Status::kPoint);
  EXPECT_NE(answer.method.find("5.6"), std::string::npos);
}

TEST(InferenceTest, NumericFallbackWhenSymbolicInapplicable) {
  // Query with no statistics: prior symmetry gives 1/2 by the profile
  // engine.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("Bird(Tweety)\n"));
  kb.mutable_vocabulary().AddPredicate("Happy", 1);
  Answer answer = DegreeOfBelief(kb, "Happy(Tweety)");
  ASSERT_EQ(answer.status, Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.5, 0.01);
  EXPECT_NE(answer.method.find("profile"), std::string::npos);
}

TEST(InferenceTest, SymbolicOnlyAnswersTheStrengthRuleInterval) {
  // Example 5.24: with the numeric engines left out, the facade reports
  // the strength rule's interval itself, not a point inside it.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "(0.7 <~_1 #(Chirps(x) ; Bird(x))[x]) & "
      "(#(Chirps(x) ; Bird(x))[x] <~_2 0.8)\n"
      "(0 <~_3 #(Chirps(x) ; Magpie(x))[x]) & "
      "(#(Chirps(x) ; Magpie(x))[x] <~_4 0.99)\n"
      "forall x. (Magpie(x) => Bird(x))\n"
      "Magpie(Tweety)\n"));
  InferenceOptions options;
  options.tolerances = semantics::ToleranceVector::Uniform(0.04);
  options.limit.domain_sizes = {16, 32, 48};
  options.limit.tolerance_scales = {1.0, 0.5};
  options.strategies.Remove("profile").Remove("maxent").Remove("exact");
  Answer answer = DegreeOfBelief(kb, "Chirps(Tweety)", options);
  ASSERT_EQ(answer.status, Answer::Status::kInterval) << answer.explanation;
  EXPECT_NEAR(answer.lo, 0.7, 1e-9);
  EXPECT_NEAR(answer.hi, 0.8, 1e-9);
}

TEST(InferenceTest, SeriesRecordedForSweeps) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("Bird(Tweety)\n"));
  InferenceOptions options;
  options.strategies.Remove("symbolic");
  Answer answer = DegreeOfBelief(kb, "Bird(Tweety)", options);
  ASSERT_EQ(answer.status, Answer::Status::kPoint);
  EXPECT_FALSE(answer.series.empty());
  EXPECT_TRUE(answer.converged);
}

TEST(InferenceTest, UndefinedForUnsatisfiableKb) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "(exists x. A(x)) & (forall x. !A(x))\n"));
  InferenceOptions options;
  options.strategies.Remove("maxent");
  Answer answer = DegreeOfBelief(kb, "A(K)", options);
  EXPECT_EQ(answer.status, Answer::Status::kUndefined);
}

TEST(InferenceTest, NonUnaryFallsBackToExactEnumeration) {
  // A binary-predicate KB outside every fast engine but tiny enough to
  // enumerate: Pr(R(A,B)) with no information = 1/2.
  KnowledgeBase kb;
  kb.mutable_vocabulary().AddPredicate("R", 2);
  kb.mutable_vocabulary().AddConstant("A");
  kb.mutable_vocabulary().AddConstant("B");
  Answer answer = DegreeOfBelief(kb, "R(A, B)");
  ASSERT_EQ(answer.status, Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.5, 1e-9);
  EXPECT_NE(answer.method.find("exact"), std::string::npos);
}

TEST(InferenceTest, ConditioningOnEvidence) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"));
  kb.mutable_vocabulary().AddConstant("Eric");
  // Without evidence Eric is a stranger; after learning Jaun(Eric) the
  // direct-inference value appears.
  Answer before = DegreeOfBelief(kb, "Hep(Eric)");
  Answer after = ConditionalDegreeOfBelief(
      kb, logic::P("Hep", logic::C("Eric")),
      logic::P("Jaun", logic::C("Eric")));
  ASSERT_EQ(after.status, Answer::Status::kPoint) << after.explanation;
  EXPECT_NEAR(after.value, 0.8, 0.02);
  // Before the evidence, Eric is a stranger: his prior reflects the
  // maximum-entropy pull of the statistics (an E5.29-style value below the
  // conditional), not the conditional itself.
  ASSERT_EQ(before.status, Answer::Status::kPoint);
  EXPECT_GT(before.value, 0.2);
  EXPECT_LT(before.value, after.value - 0.1);
}

TEST(InferenceTest, Proposition5_2_ConditioningOnConclusions) {
  // KB |∼ Fly(Tweety); adding that conclusion leaves other degrees of
  // belief unchanged (Proposition 5.2, via the public API).
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "#(Fly(x) ; Bird(x))[x] ~=_1 1\n"
      "#(Sings(x) ; Bird(x))[x] ~=_2 0.3\n"
      "Bird(Tweety)\n"));
  InferenceOptions options;
  options.limit.domain_sizes = {24, 48};
  options.limit.tolerance_scales = {1.0};
  Answer base = DegreeOfBelief(kb, "Sings(Tweety)", options);
  Answer conditioned = ConditionalDegreeOfBelief(
      kb, logic::P("Sings", logic::C("Tweety")),
      logic::P("Fly", logic::C("Tweety")), options);
  ASSERT_EQ(base.status, Answer::Status::kPoint) << base.explanation;
  ASSERT_EQ(conditioned.status, Answer::Status::kPoint)
      << conditioned.explanation;
  EXPECT_NEAR(base.value, conditioned.value, 0.02);
  EXPECT_NEAR(base.value, 0.3, 0.05);
}

TEST(InferenceTest, FixedDomainSizeComputesAtThatN) {
  // Footnote 9: a known lottery of N people, no limits taken.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "exists! w. Winner(w)\n"
      "Ticket(Eric)\n"
      "forall x. (Winner(x) => Ticket(x))\n"
      "forall x. Ticket(x)\n"));  // everyone holds a ticket
  InferenceOptions options;
  options.fixed_domain_size = 10;
  Answer answer = DegreeOfBelief(kb, "Winner(Eric)", options);
  ASSERT_EQ(answer.status, Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.1, 1e-9);
  EXPECT_NE(answer.method.find("fixed N"), std::string::npos);
}

TEST(InferenceTest, FixedDomainSizeDetectsUnsatisfiability) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("(exists x. A(x)) & (forall x. !A(x))\n"));
  InferenceOptions options;
  options.fixed_domain_size = 5;
  Answer answer = DegreeOfBelief(kb, "A(K)", options);
  EXPECT_EQ(answer.status, Answer::Status::kUndefined);
}

TEST(InferenceTest, FixedDomainSizeExactForNonUnary) {
  KnowledgeBase kb;
  kb.mutable_vocabulary().AddPredicate("R", 2);
  kb.mutable_vocabulary().AddConstant("A");
  InferenceOptions options;
  options.fixed_domain_size = 3;
  Answer answer = DegreeOfBelief(kb, "R(A, A)", options);
  ASSERT_EQ(answer.status, Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.5, 1e-9);
  EXPECT_NE(answer.method.find("exact"), std::string::npos);
}

TEST(InferenceTest, StatusToStringCoversAll) {
  EXPECT_EQ(StatusToString(Answer::Status::kPoint), "point");
  EXPECT_EQ(StatusToString(Answer::Status::kInterval), "interval");
  EXPECT_EQ(StatusToString(Answer::Status::kNonexistent), "nonexistent");
  EXPECT_EQ(StatusToString(Answer::Status::kUndefined), "undefined");
  EXPECT_EQ(StatusToString(Answer::Status::kUnknown), "unknown");
}

// Open formulas never reach the engines (which abort on an unbound
// variable): every KB entry point answers kUnknown and names the free
// variables.
TEST(InferenceTest, OpenFormulasAnswerUnknownNamingFreeVariables) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("#(Hep(x) ; Jaun(x))[x] ~= 0.8\nJaun(Eric)\n"));
  const logic::FormulaPtr open_query = logic::ParseFormula("Hep(y)").formula;
  const logic::FormulaPtr closed_query =
      logic::ParseFormula("Hep(Eric)").formula;

  Answer single = DegreeOfBelief(kb, open_query);
  EXPECT_EQ(single.status, Answer::Status::kUnknown);
  EXPECT_NE(single.explanation.find("query has free variables: y"),
            std::string::npos)
      << single.explanation;

  QueryContext ctx =
      MakeQueryContext(kb, std::span<const logic::FormulaPtr>());
  Answer via_context = DegreeOfBelief(ctx, open_query);
  EXPECT_EQ(via_context.status, Answer::Status::kUnknown);
  EXPECT_NE(via_context.explanation.find("query has free variables: y"),
            std::string::npos)
      << via_context.explanation;

  const std::vector<logic::FormulaPtr> batch = {open_query, closed_query};
  std::vector<Answer> answers = DegreesOfBelief(kb, batch);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].status, Answer::Status::kUnknown);
  EXPECT_NE(answers[0].explanation.find("free variables: y"),
            std::string::npos);
  ASSERT_EQ(answers[1].status, Answer::Status::kPoint);
  EXPECT_NEAR(answers[1].value, 0.8, 1e-9);

  Answer conditional = ConditionalDegreeOfBelief(
      kb, closed_query, logic::ParseFormula("Jaun(z)").formula);
  EXPECT_EQ(conditional.status, Answer::Status::kUnknown);
  EXPECT_NE(conditional.explanation.find("evidence has free variables: z"),
            std::string::npos)
      << conditional.explanation;

  KnowledgeBase open_kb = kb;
  open_kb.Add(logic::ParseFormula("Jaun(w)").formula);
  Answer on_open_kb = DegreeOfBelief(open_kb, closed_query);
  EXPECT_EQ(on_open_kb.status, Answer::Status::kUnknown);
  EXPECT_NE(on_open_kb.explanation.find(
                "knowledge base has free variables: w"),
            std::string::npos)
      << on_open_kb.explanation;
  for (const Answer& answer : DegreesOfBelief(open_kb, batch)) {
    EXPECT_EQ(answer.status, Answer::Status::kUnknown);
  }

  EXPECT_EQ(OpenFormulaError(closed_query, "query"), "");
}

// A symbol used at a second arity (or as a second kind) used to abort the
// process inside Vocabulary; every KB entry point now refuses it.
TEST(InferenceTest, SignatureConflictsAnswerUnknownNamingTheClash) {
  const std::string clash_error =
      "cannot declare predicate 'Hep' with arity 2: already arity 1";
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("#(Hep(x) ; Jaun(x))[x] ~= 0.8\nJaun(Eric)\n"));

  std::string error;
  EXPECT_FALSE(kb.AddParsed("Hep(Eric, Tom)", &error));
  EXPECT_EQ(error, clash_error);
  EXPECT_EQ(kb.conjuncts().size(), 2u);
  KnowledgeBase fresh;
  EXPECT_FALSE(fresh.AddParsed("P(A)\nP(A, B)", &error));
  EXPECT_EQ(error, "cannot declare predicate 'P' with arity 2: already arity 1");
  EXPECT_TRUE(fresh.conjuncts().empty());
  EXPECT_FALSE(fresh.AddParsed("P(A)\nQ(P)", &error));
  EXPECT_EQ(error, "cannot declare constant 'P': already a predicate");

  const logic::FormulaPtr clash =
      logic::ParseFormula("Hep(Eric, Tom)").formula;
  const logic::FormulaPtr closed_query =
      logic::ParseFormula("Hep(Eric)").formula;
  for (const Answer& answer :
       {DegreeOfBelief(kb, clash), DegreeOfBelief(kb, "Hep(Eric, Tom)"),
        ConditionalDegreeOfBelief(kb, clash, closed_query),
        ConditionalDegreeOfBelief(kb, closed_query, clash)}) {
    EXPECT_EQ(answer.status, Answer::Status::kUnknown);
    EXPECT_EQ(answer.explanation, clash_error);
  }

  const std::vector<logic::FormulaPtr> batch = {clash, closed_query};
  const std::vector<std::string> text_batch = {"Hep(Eric, Tom)", "Hep(Eric)"};
  for (const std::vector<Answer>& answers :
       {DegreesOfBelief(kb, batch), DegreesOfBelief(kb, text_batch)}) {
    ASSERT_EQ(answers.size(), 2u);
    EXPECT_EQ(answers[0].status, Answer::Status::kUnknown);
    EXPECT_EQ(answers[0].explanation, clash_error);
    ASSERT_EQ(answers[1].status, Answer::Status::kPoint);
    EXPECT_NEAR(answers[1].value, 0.8, 1e-9);
  }
}

TEST(InferenceTest, TextQueryParseErrorAnswersUnknown) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("#(Hep(x) ; Jaun(x))[x] ~= 0.8\nJaun(Eric)\n"));
  Answer answer = DegreeOfBelief(kb, "Hep(Eric");
  EXPECT_EQ(answer.status, Answer::Status::kUnknown);
  EXPECT_EQ(answer.explanation.rfind("query parse error: ", 0), 0u)
      << answer.explanation;
  EXPECT_EQ(DegreesOfBelief(kb, std::vector<std::string>{"Hep(Eric"})[0]
                .explanation,
            answer.explanation);
}

}  // namespace
}  // namespace rwl
