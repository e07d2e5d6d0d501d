// The random-propensities prior (Section 7.3 / BGHK92): unlike random
// worlds, it learns statistics from samples — and overlearns from
// non-representative ones, exactly the trade-off the paper discusses.
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"

namespace rwl::engines {
namespace {

using logic::C;
using logic::CondProp;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::Prop;
using logic::V;

semantics::ToleranceVector Tol(double v) {
  return semantics::ToleranceVector::Uniform(v);
}

ProfileEngine Propensities() {
  ProfileEngine::Options options;
  options.prior = Prior::kRandomPropensities;
  return ProfileEngine(options);
}

TEST(Propensities, PriorProbabilityOfPredicateIsHalfBySymmetry) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddConstant("K");
  ProfileEngine engine = Propensities();
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, P("A", C("K")), 12, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 0.5, 1e-9);
}

TEST(Propensities, WorldCountBecomesUniformOverFrequencies) {
  // Under uniform propensities every frequency c ∈ {0..N} of a single
  // predicate is equally likely: Pr(||A|| = c/N) = 1/(N+1).  Check via the
  // query "no element is A" (c = 0): probability 1/(N+1), against the
  // 2^-N of random worlds.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ProfileEngine propensities = Propensities();
  ProfileEngine uniform;
  FormulaPtr none = Formula::Not(Formula::Exists("x", P("A", V("x"))));
  const int n = 10;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult rp = propensities.DegreeAt(ctx, none, n, Tol(0.1));
  FiniteResult ru = uniform.DegreeAt(ctx, none, n, Tol(0.1));
  ASSERT_TRUE(rp.well_defined);
  EXPECT_NEAR(rp.probability, 1.0 / (n + 1), 1e-9);
  EXPECT_NEAR(ru.probability, std::pow(2.0, -n), 1e-12);
}

TEST(Propensities, LearnsFromSamples) {
  // Section 7.3's sampling KB: 90% of *sampled* birds fly.  Random worlds
  // keeps Pr(Fly) = 1/2 for an unsampled bird; random propensities
  // transfers the sample statistic.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Fly", 1);
  vocab.AddPredicate("Bird", 1);
  vocab.AddPredicate("S", 1);  // "was sampled"
  vocab.AddConstant("Tweety");
  FormulaPtr kb = Formula::AndAll({
      logic::ApproxEq(
          CondProp(P("Fly", V("x")),
                   Formula::And(P("Bird", V("x")), P("S", V("x"))), {"x"}),
          0.9, 1),
      // the sample is sizable, so the statistic is informative:
      logic::ApproxGeq(Prop(Formula::And(P("Bird", V("x")), P("S", V("x"))),
                            {"x"}),
                       0.2, 2),
      P("Bird", C("Tweety")),
      Formula::Not(P("S", C("Tweety"))),
  });
  FormulaPtr query = P("Fly", C("Tweety"));
  const int n = 24;

  ProfileEngine uniform;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult rw = uniform.DegreeAt(ctx, query, n, Tol(0.05));
  ASSERT_TRUE(rw.well_defined);
  // Random worlds: the unsampled birds are an unrelated population.
  EXPECT_NEAR(rw.probability, 0.5, 0.1);

  ProfileEngine propensities = Propensities();
  FiniteResult pr = propensities.DegreeAt(ctx, query, n, Tol(0.05));
  ASSERT_TRUE(pr.well_defined);
  // Random propensities: the Fly propensity itself was learned.
  EXPECT_GT(pr.probability, 0.75);
}

TEST(Propensities, OverlearnsFromUniversals) {
  // The documented flaw: "all giraffes are tall" drags the global Tall
  // propensity upward, so an arbitrary non-giraffe is now believed tall.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Tall", 1);
  vocab.AddPredicate("Giraffe", 1);
  vocab.AddConstant("Rock");
  FormulaPtr kb = Formula::AndAll({
      Formula::ForAll("x", Formula::Implies(P("Giraffe", V("x")),
                                            P("Tall", V("x")))),
      // giraffes are plentiful in this domain:
      logic::ApproxGeq(Prop(P("Giraffe", V("x")), {"x"}), 0.3, 1),
      Formula::Not(P("Giraffe", C("Rock"))),
  });
  FormulaPtr query = P("Tall", C("Rock"));
  const int n = 20;

  ProfileEngine uniform;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult rw = uniform.DegreeAt(ctx, query, n, Tol(0.05));
  ASSERT_TRUE(rw.well_defined);
  EXPECT_NEAR(rw.probability, 0.5, 0.08);  // random worlds: unaffected

  ProfileEngine propensities = Propensities();
  FiniteResult pr = propensities.DegreeAt(ctx, query, n, Tol(0.05));
  ASSERT_TRUE(pr.well_defined);
  EXPECT_GT(pr.probability, 0.6);  // propensities: contaminated
}

TEST(Propensities, DirectInferenceStillHolds) {
  // The BGHK92/KH96 result: direct inference survives the prior change.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Hep", 1);
  vocab.AddPredicate("Jaun", 1);
  vocab.AddConstant("Eric");
  FormulaPtr kb = Formula::And(
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1));
  ProfileEngine propensities = Propensities();
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult r = propensities.DegreeAt(ctx, P("Hep", C("Eric")), 48,
                                         Tol(0.04));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 0.8, 0.05);
}

}  // namespace
}  // namespace rwl::engines
