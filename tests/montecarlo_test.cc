#include "src/engines/montecarlo_engine.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/exact_engine.h"
#include "src/logic/builder.h"
#include "src/logic/printer.h"

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

MonteCarloEngine::Options FastOptions() {
  MonteCarloEngine::Options options;
  options.num_samples = 40'000;
  return options;
}

// The acceptance rate a caching context stored for the planner's cost
// model after the engine's last run in it (-1 when none was stored).
double Acceptance(const QueryContext& ctx, const MonteCarloEngine& mc) {
  auto stored = std::static_pointer_cast<const double>(
      ctx.LookupBlob("planner.mc.acceptance|" + mc.CacheSalt()));
  return stored == nullptr ? -1.0 : *stored;
}

TEST(MonteCarloEngine, MatchesExactOnBinaryPredicateKb) {
  // A genuinely non-unary KB: a binary relation with a reflexivity fact.
  logic::Vocabulary vocab;
  vocab.AddPredicate("R", 2);
  vocab.AddConstant("A");
  vocab.AddConstant("B");
  FormulaPtr kb = Formula::ForAll("x", P("R", V("x"), V("x")));
  FormulaPtr query = P("R", C("A"), C("B"));

  ExactEngine exact;
  MonteCarloEngine mc(FastOptions());
  const int n = 3;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult truth = exact.DegreeAt(ctx, query, n, Tol(0.1));
  FiniteResult sampled = mc.DegreeAt(ctx, query, n, Tol(0.1));
  ASSERT_TRUE(truth.well_defined);
  ASSERT_TRUE(sampled.well_defined);
  EXPECT_NEAR(sampled.probability, truth.probability, 0.03);
}

TEST(MonteCarloEngine, SymmetryGivesHalf) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("Likes", 2);
  vocab.AddConstant("A");
  vocab.AddConstant("B");
  MonteCarloEngine mc(FastOptions());
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = mc.DegreeAt(ctx, P("Likes", C("A"), C("B")), 6, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 0.5, 0.02);
}

TEST(MonteCarloEngine, TransitivityRaisesConditional) {
  // Pr(R(a,c) | R(a,b) ∧ R(b,c) ∧ "R transitive") = 1.
  logic::Vocabulary vocab;
  vocab.AddPredicate("R", 2);
  vocab.AddConstant("A");
  vocab.AddConstant("B");
  vocab.AddConstant("Cc");
  FormulaPtr transitive = Formula::ForAll(
      "x",
      Formula::ForAll(
          "y", Formula::ForAll(
                   "z", Formula::Implies(
                            Formula::And(P("R", V("x"), V("y")),
                                         P("R", V("y"), V("z"))),
                            P("R", V("x"), V("z"))))));
  FormulaPtr kb = Formula::AndAll(
      {transitive, P("R", C("A"), C("B")), P("R", C("B"), C("Cc"))});
  MonteCarloEngine::Options options;
  options.num_samples = 300'000;
  options.min_accepted = 20;
  MonteCarloEngine mc(options);
  QueryContext ctx(vocab, kb, /*caching_enabled=*/true);
  FiniteResult r = mc.DegreeAt(ctx, P("R", C("A"), C("Cc")), 3, Tol(0.1));
  ASSERT_TRUE(r.well_defined) << "acceptance " << Acceptance(ctx, mc);
  EXPECT_NEAR(r.probability, 1.0, 1e-12);
}

TEST(MonteCarloEngine, ReportsUndefinedForImprobableKb) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  FormulaPtr kb = Formula::And(
      Formula::Exists("x", P("A", V("x"))),
      Formula::ForAll("x", Formula::Not(P("A", V("x")))));
  MonteCarloEngine mc(FastOptions());
  QueryContext ctx(vocab, kb, /*caching_enabled=*/true);
  FiniteResult r = mc.DegreeAt(ctx, Formula::True(), 6, Tol(0.1));
  EXPECT_FALSE(r.well_defined);
  EXPECT_EQ(Acceptance(ctx, mc), 0.0);
}

TEST(MonteCarloEngine, DeterministicUnderSeed) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("R", 2);
  vocab.AddConstant("A");
  MonteCarloEngine mc(FastOptions());
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult a = mc.DegreeAt(ctx, P("R", C("A"), C("A")), 4, Tol(0.1));
  FiniteResult b = mc.DegreeAt(ctx, P("R", C("A"), C("A")), 4, Tol(0.1));
  EXPECT_EQ(a.probability, b.probability);
}

TEST(MonteCarloEngine, BitIdenticalAcrossRunsAndThreadCounts) {
  // Same Options::seed → bit-identical estimates from independently
  // constructed engines, and from the limit sweep at any worker-pool
  // width (each (N, τ) point reseeds from the options, so evaluation
  // order cannot leak into the results).
  logic::Vocabulary vocab;
  vocab.AddPredicate("R", 2);
  vocab.AddPredicate("A", 1);
  vocab.AddConstant("K0");
  vocab.AddConstant("K1");
  FormulaPtr kb = Formula::And(Formula::ForAll("x", P("R", V("x"), V("x"))),
                               P("A", C("K0")));
  FormulaPtr query = P("R", C("K0"), C("K1"));

  MonteCarloEngine first(FastOptions());
  MonteCarloEngine second(FastOptions());
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  for (int n : {3, 4, 6}) {
    FiniteResult a = first.DegreeAt(ctx, query, n, Tol(0.1));
    FiniteResult b = second.DegreeAt(ctx, query, n, Tol(0.1));
    EXPECT_EQ(a.well_defined, b.well_defined) << "N=" << n;
    EXPECT_EQ(a.probability, b.probability) << "N=" << n;
    EXPECT_EQ(a.log_numerator, b.log_numerator) << "N=" << n;
    EXPECT_EQ(a.log_denominator, b.log_denominator) << "N=" << n;
  }

  LimitOptions serial;
  serial.domain_sizes = {3, 4, 6};
  serial.num_threads = 1;
  LimitOptions pooled = serial;
  pooled.num_threads = 4;
  LimitResult a = EstimateLimit(first, ctx, query, Tol(0.1), serial);
  LimitResult b = EstimateLimit(second, ctx, query, Tol(0.1), pooled);
  EXPECT_EQ(a.value.has_value(), b.value.has_value());
  if (a.value.has_value()) EXPECT_EQ(*a.value, *b.value);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].domain_size, b.series[i].domain_size);
    EXPECT_EQ(a.series[i].probability, b.series[i].probability);
    EXPECT_EQ(a.series[i].well_defined, b.series[i].well_defined);
  }
}

TEST(MonteCarloEngine, SupportsRefusesHugeWorlds) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("R", 3);
  MonteCarloEngine::Options options;
  options.max_cells = 1000;
  MonteCarloEngine mc(options);
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  EXPECT_TRUE(mc.Supports(ctx, Formula::True(), 10));
  EXPECT_FALSE(mc.Supports(ctx, Formula::True(), 11));
}

}  // namespace
}  // namespace rwl::engines
