// Property test: the profile engine computes exactly the same Pr_N^τ as
// brute-force world enumeration on randomly generated unary KBs.  This is
// the central correctness invariant of the fast engine — the two compute
// the same definitional quantity by entirely different decompositions.
#include <random>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/exact_engine.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/workload/generators.h"

namespace rwl::engines {
namespace {

using logic::Formula;
using logic::FormulaPtr;

struct AgreementCase {
  int num_predicates;
  int num_constants;
  int num_statements;
  int num_facts;
  int domain_size;
  int trials;
};

class EngineAgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(EngineAgreementTest, ProfileMatchesExact) {
  const AgreementCase& param = GetParam();
  std::mt19937 rng(977 + param.num_predicates * 31 +
                   param.num_constants * 7 + param.domain_size);
  ExactEngine exact;
  ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.15);

  int compared = 0;
  for (int trial = 0; trial < param.trials; ++trial) {
    workload::UnaryKbParams params;
    params.num_predicates = param.num_predicates;
    params.num_constants = param.num_constants;
    params.num_statements = param.num_statements;
    params.num_facts = param.num_facts;
    FormulaPtr kb = workload::RandomUnaryKb(params, &rng);
    FormulaPtr query = workload::RandomQuery(params, &rng);

    logic::Vocabulary vocab;
    // Register the full generator vocabulary so both engines agree on the
    // world space even when a predicate/constant is unused.
    for (const auto& p : workload::GeneratorPredicates(param.num_predicates)) {
      vocab.AddPredicate(p, 1);
    }
    for (const auto& c : workload::GeneratorConstants(param.num_constants)) {
      vocab.AddConstant(c);
    }
    logic::RegisterSymbols(kb, &vocab);
    logic::RegisterSymbols(query, &vocab);

    QueryContext cache_free(vocab, kb, /*caching_enabled=*/false);
    if (!exact.Supports(cache_free, query, param.domain_size)) continue;
    FiniteResult ground_truth =
        exact.DegreeAt(cache_free, query, param.domain_size, tol);
    FiniteResult fast =
        profile.DegreeAt(cache_free, query, param.domain_size, tol);

    ASSERT_EQ(ground_truth.well_defined, fast.well_defined)
        << "KB: " << logic::ToString(kb)
        << "\nquery: " << logic::ToString(query);
    if (!ground_truth.well_defined) continue;
    ++compared;
    EXPECT_NEAR(ground_truth.probability, fast.probability, 1e-9)
        << "KB: " << logic::ToString(kb)
        << "\nquery: " << logic::ToString(query);
    EXPECT_NEAR(ground_truth.log_denominator, fast.log_denominator, 1e-7)
        << "world counts diverged; KB: " << logic::ToString(kb);

    // Caching context: marking (first query at a sweep point), recording
    // (second) and replay (third) must all be bit-identical to the
    // cache-free computation.
    rwl::QueryContext ctx(vocab, kb, /*caching_enabled=*/true);
    FiniteResult recorded =
        profile.DegreeAt(ctx, Formula::True(), param.domain_size, tol);
    EXPECT_EQ(recorded.well_defined, fast.well_defined);
    profile.DegreeAt(ctx, Formula::False(), param.domain_size, tol);
    FiniteResult replayed =
        profile.DegreeAt(ctx, query, param.domain_size, tol);
    EXPECT_EQ(replayed.well_defined, fast.well_defined);
    EXPECT_EQ(replayed.probability, fast.probability)
        << "cached replay diverged; KB: " << logic::ToString(kb)
        << "\nquery: " << logic::ToString(query);
    EXPECT_EQ(replayed.log_numerator, fast.log_numerator);
    EXPECT_EQ(replayed.log_denominator, fast.log_denominator);
  }
  // The sweep must have actually exercised the engines (random KBs with few
  // predicates are often unsatisfiable at this tolerance, so the bound is
  // deliberately loose).
  EXPECT_GE(compared, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineAgreementTest,
    ::testing::Values(
        AgreementCase{1, 1, 1, 1, 5, 40},
        AgreementCase{2, 1, 2, 1, 5, 40},
        AgreementCase{2, 2, 2, 2, 4, 40},
        AgreementCase{3, 1, 2, 1, 4, 30},
        AgreementCase{3, 2, 3, 2, 3, 30},
        AgreementCase{2, 3, 1, 2, 4, 25},
        AgreementCase{1, 2, 2, 2, 6, 25}));

// Quantified and equality-laden queries agree as well (these stress the
// placement bookkeeping rather than the statistics).
TEST(EngineAgreementSpecials, QuantifiersAndEquality) {
  using logic::C;
  using logic::P;
  using logic::V;
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddPredicate("B", 1);
  vocab.AddConstant("K0");
  vocab.AddConstant("K1");

  std::vector<FormulaPtr> kbs = {
      Formula::True(),
      P("A", C("K0")),
      Formula::And(P("A", C("K0")), Formula::Not(P("A", C("K1")))),
      Formula::Exists("x", Formula::And(P("A", V("x")), P("B", V("x")))),
      logic::Eq(C("K0"), C("K1")),
      Formula::Not(logic::Eq(C("K0"), C("K1"))),
      logic::ExistsUnique("x", P("A", V("x"))),
  };
  std::vector<FormulaPtr> queries = {
      P("A", C("K1")),
      logic::Eq(C("K0"), C("K1")),
      Formula::ForAll("x", Formula::Implies(P("A", V("x")), P("B", V("x")))),
      logic::ExistsUnique("x", P("A", V("x"))),
      Formula::Exists(
          "x", Formula::And(logic::Eq(V("x"), C("K0")), P("B", V("x")))),
  };

  ExactEngine exact;
  ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.2);
  for (int n : {2, 3, 4}) {
    for (const auto& kb : kbs) {
      QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
      for (const auto& query : queries) {
        FiniteResult g = exact.DegreeAt(ctx, query, n, tol);
        FiniteResult f = profile.DegreeAt(ctx, query, n, tol);
        ASSERT_EQ(g.well_defined, f.well_defined)
            << logic::ToString(kb) << " ? " << logic::ToString(query);
        if (!g.well_defined) continue;
        EXPECT_NEAR(g.probability, f.probability, 1e-9)
            << "N=" << n << " KB: " << logic::ToString(kb)
            << " query: " << logic::ToString(query);
      }
    }
  }
}

}  // namespace
}  // namespace rwl::engines
