// Section 5.5: the lottery paradox and unique names.
#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"

namespace rwl {
namespace {

using logic::C;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::V;

// KB: exactly one winner, winners hold tickets, c holds a ticket.
FormulaPtr LotteryKb() {
  return Formula::AndAll({
      logic::ExistsUnique("w", P("Winner", V("w"))),
      Formula::ForAll("x", Formula::Implies(P("Winner", V("x")),
                                            P("Ticket", V("x")))),
      P("Ticket", C("Eric")),
  });
}

TEST(Lottery, KnownPoolSizeGivesOneOverK) {
  // With exactly K ticket holders, Pr(Winner(Eric)) = 1/K at every N ≥ K.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Winner", 1);
  vocab.AddPredicate("Ticket", 1);
  vocab.AddConstant("Eric");
  engines::ProfileEngine engine;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);
  for (int k : {2, 3, 4}) {
    FormulaPtr kb = Formula::And(
        LotteryKb(), logic::ExactlyN(k, "t", P("Ticket", V("t"))));
    QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
    auto r = engine.DegreeAt(ctx, P("Winner", C("Eric")), 8, tol);
    ASSERT_TRUE(r.well_defined) << "K=" << k;
    EXPECT_NEAR(r.probability, 1.0 / k, 1e-9) << "K=" << k;
  }
}

TEST(Lottery, SomeoneWinsWithCertainty) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("Winner", 1);
  vocab.AddPredicate("Ticket", 1);
  vocab.AddConstant("Eric");
  engines::ProfileEngine engine;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);
  QueryContext ctx(vocab, LotteryKb(), /*caching_enabled=*/false);
  auto r = engine.DegreeAt(ctx, Formula::Exists("x", P("Winner", V("x"))), 12,
                           tol);
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 1.0, 1e-12);
}

TEST(Lottery, QualitativeLotteryWinnerProbabilityVanishes) {
  // Without a known pool size, Pr(Winner(Eric)) ~ E[1/#tickets] → 0 as the
  // domain (and hence the typical ticket pool) grows.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Winner", 1);
  vocab.AddPredicate("Ticket", 1);
  vocab.AddConstant("Eric");
  engines::ProfileEngine engine;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);
  double prev = 1.0;
  QueryContext ctx(vocab, LotteryKb(), /*caching_enabled=*/false);
  for (int n : {8, 16, 32, 64}) {
    auto r = engine.DegreeAt(ctx, P("Winner", C("Eric")), n, tol);
    ASSERT_TRUE(r.well_defined);
    EXPECT_LT(r.probability, prev);
    prev = r.probability;
  }
  EXPECT_LT(prev, 0.07);
}

TEST(Lottery, PooleBirdPartitionIsInconsistent) {
  // Poole's variant (§3.5/§5.5): partitioning birds into finitely many
  // uniformly-exceptional subclasses contradicts the statistical reading of
  // defaults — no worlds satisfy the KB once τ < 1/#subclasses.
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed(
      "forall x. (Bird(x) <=> (Emu(x) | Penguin(x)))\n"
      "forall x. !(Emu(x) & Penguin(x))\n"
      // Each subclass is a negligible fraction of birds:
      "#(Emu(x) ; Bird(x))[x] ~=_1 0\n"
      "#(Penguin(x) ; Bird(x))[x] ~=_2 0\n"
      // and birds exist:
      "0.2 <~_3 #(Bird(x))[x]\n"));
  InferenceOptions options;
  options.tolerances = semantics::ToleranceVector::Uniform(0.05);
  options.limit.domain_sizes = {12, 20};
  options.limit.tolerance_scales = {1.0};
  options.strategies.Remove("maxent").Remove("exact");
  Answer answer = DegreeOfBelief(kb, "Bird(Tweety)", options);
  EXPECT_EQ(answer.status, Answer::Status::kUndefined)
      << StatusToString(answer.status);
}

TEST(UniqueNames, FreshConstantsDenoteDifferentObjects) {
  KnowledgeBase kb;
  kb.mutable_vocabulary().AddConstant("C1");
  kb.mutable_vocabulary().AddConstant("C2");
  InferenceOptions options;
  options.limit.domain_sizes = {16, 32, 64, 128};
  Answer answer = DegreeOfBelief(kb, "C1 = C2", options);
  ASSERT_TRUE(answer.status == Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 0.0, 0.01);
}

TEST(UniqueNames, LifschitzC1) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("Ray = Reiter\nDrew = McDermott\n"));
  InferenceOptions options;
  options.limit.domain_sizes = {16, 32, 64, 128};
  Answer answer = DegreeOfBelief(kb, "Ray != Drew", options);
  ASSERT_TRUE(answer.status == Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 1.0, 0.01);
}

TEST(UniqueNames, DisjunctionOfEqualitiesGivesOneThird) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddParsed("(C1 = C2) | (C2 = C3) | (C1 = C3)\n"));
  InferenceOptions options;
  options.limit.domain_sizes = {32, 64, 128, 256};
  Answer answer = DegreeOfBelief(kb, "C1 = C2", options);
  ASSERT_TRUE(answer.status == Answer::Status::kPoint) << answer.explanation;
  EXPECT_NEAR(answer.value, 1.0 / 3.0, 0.01);
}

}  // namespace
}  // namespace rwl
