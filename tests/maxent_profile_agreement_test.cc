// Property test: the maximum-entropy engine's limit matches the profile
// engine's large-N value on random unary KBs (Section 6's concentration,
// engine-against-engine).  Agreement is up to the finite-N and finite-τ
// bias, so the tolerance is loose but the sweep is broad.
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/maxent_engine.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/workload/generators.h"

namespace rwl {
namespace {

struct SweepCase {
  int num_predicates;
  int num_statements;
  int trials;
  int domain_size;
};

class MaxEntProfileSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MaxEntProfileSweep, LimitsAgree) {
  const SweepCase& param = GetParam();
  std::mt19937 rng(33 + param.num_predicates * 101 + param.num_statements);
  engines::MaxEntEngine maxent;
  engines::ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);

  int compared = 0;
  for (int trial = 0; trial < param.trials; ++trial) {
    workload::UnaryKbParams params;
    params.num_predicates = param.num_predicates;
    params.num_constants = 1;
    params.num_statements = param.num_statements;
    params.num_facts = 1;
    logic::FormulaPtr kb = workload::RandomUnaryKb(params, &rng);
    // Query: a class fact about the constant.
    logic::FormulaPtr query = workload::RandomClassExpr(
        param.num_predicates, logic::C("K0"), 1, &rng);

    logic::Vocabulary vocab;
    for (const auto& p :
         workload::GeneratorPredicates(param.num_predicates)) {
      vocab.AddPredicate(p, 1);
    }
    vocab.AddConstant("K0");
    logic::RegisterSymbols(kb, &vocab);
    logic::RegisterSymbols(query, &vocab);

    QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
    auto limit = maxent.InferAt(ctx, query, tol);
    if (!limit.supported || !limit.feasible) continue;
    auto finite = profile.DegreeAt(ctx, query, param.domain_size, tol);
    if (!finite.well_defined || finite.exhausted) continue;
    ++compared;
    EXPECT_NEAR(finite.probability, limit.value, 0.12)
        << "KB: " << logic::ToString(kb)
        << "\nquery: " << logic::ToString(query);
  }
  // Random KBs at this tolerance are frequently unsatisfiable, so only a
  // loose quorum is demanded.
  EXPECT_GE(compared, 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxEntProfileSweep,
                         ::testing::Values(SweepCase{2, 1, 30, 56},
                                           SweepCase{2, 2, 30, 56},
                                           SweepCase{3, 1, 20, 20},
                                           SweepCase{3, 2, 20, 20}));

TEST(MaxEntProfile, SameConstantConjunctionIntersects) {
  // Regression for the query decomposition: conjuncts about the same
  // constant must intersect, so a contradictory query gets probability 0.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Hep", 1);
  vocab.AddPredicate("Jaun", 1);
  vocab.AddConstant("Eric");
  logic::FormulaPtr kb = logic::Formula::And(
      logic::P("Jaun", logic::C("Eric")),
      logic::ApproxEq(logic::CondProp(logic::P("Hep", logic::V("x")),
                                      logic::P("Jaun", logic::V("x")),
                                      {"x"}),
                      0.8, 1));
  engines::MaxEntEngine maxent;
  auto tol = semantics::ToleranceVector::Uniform(0.02);
  logic::FormulaPtr contradiction = logic::Formula::And(
      logic::P("Hep", logic::C("Eric")),
      logic::Formula::Not(logic::P("Hep", logic::C("Eric"))));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  auto result = maxent.InferAt(ctx, contradiction, tol);
  ASSERT_TRUE(result.supported) << result.note;
  EXPECT_NEAR(result.value, 0.0, 1e-9);

  // And a redundant conjunction is idempotent, not squared.
  logic::FormulaPtr doubled = logic::Formula::And(
      logic::P("Hep", logic::C("Eric")), logic::P("Hep", logic::C("Eric")));
  auto result2 = maxent.InferAt(ctx, doubled, tol);
  ASSERT_TRUE(result2.supported);
  // The value sits at the entropy-preferred edge of the τ-slack, so it is
  // 0.8 only up to O(τ).
  EXPECT_NEAR(result2.value, 0.8, 0.03);
}

}  // namespace
}  // namespace rwl
