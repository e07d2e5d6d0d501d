// Property sweep for Theorem 5.23 (chains of reference classes): on
// randomly generated taxonomy chains with a strictly tightest interval, the
// symbolic engine must return exactly that interval, the Kyburg baseline
// must agree, and the numeric profile estimate must fall inside it.
#include <random>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/engines/symbolic_engine.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/refclass/reference_class.h"
#include "src/workload/generators.h"

namespace rwl {
namespace {

class ChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainSweep, SymbolicReturnsTightestInterval) {
  std::mt19937 rng(811 + GetParam());
  engines::SymbolicEngine engine;
  for (int trial = 0; trial < 25; ++trial) {
    workload::ChainKb chain = workload::RandomChainKb(GetParam(), &rng);
    logic::Vocabulary vocabulary;
    logic::RegisterSymbols(chain.kb, &vocabulary);
    logic::RegisterSymbols(chain.query, &vocabulary);
    QueryContext ctx(std::move(vocabulary), chain.kb,
                     /*caching_enabled=*/false);
    engines::SymbolicAnswer answer = engine.Infer(ctx, chain.query);
    ASSERT_EQ(answer.status, engines::SymbolicAnswer::Status::kInterval)
        << logic::ToString(chain.kb);
    EXPECT_NEAR(answer.lo, chain.tightest_lo, 1e-12)
        << logic::ToString(chain.kb);
    EXPECT_NEAR(answer.hi, chain.tightest_hi, 1e-12)
        << logic::ToString(chain.kb);
  }
}

TEST_P(ChainSweep, KyburgStrengthAgreesOnChains) {
  std::mt19937 rng(911 + GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    workload::ChainKb chain = workload::RandomChainKb(GetParam(), &rng);
    refclass::RefClassAnswer answer = refclass::Infer(
        chain.kb, chain.query, refclass::Policy::kKyburgStrength);
    ASSERT_EQ(answer.status, refclass::RefClassAnswer::Status::kInterval)
        << answer.diagnosis;
    EXPECT_NEAR(answer.lo, chain.tightest_lo, 1e-12);
    EXPECT_NEAR(answer.hi, chain.tightest_hi, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainSweep, ::testing::Values(2, 3, 4));

TEST(ChainNumeric, ProfileEstimateInsideTheInterval) {
  // Depth-2 chains stay cheap enough to sweep numerically.
  std::mt19937 rng(1213);
  engines::ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.02);
  int checked = 0;
  for (int trial = 0; trial < 6; ++trial) {
    workload::ChainKb chain = workload::RandomChainKb(2, &rng);
    logic::Vocabulary vocab;
    logic::RegisterSymbols(chain.kb, &vocab);
    logic::RegisterSymbols(chain.query, &vocab);
    QueryContext ctx(vocab, chain.kb, /*caching_enabled=*/false);
    auto r = profile.DegreeAt(ctx, chain.query, 20, tol);
    if (!r.well_defined) continue;
    ++checked;
    EXPECT_GE(r.probability, chain.tightest_lo - 0.08)
        << logic::ToString(chain.kb);
    EXPECT_LE(r.probability, chain.tightest_hi + 0.08)
        << logic::ToString(chain.kb);
  }
  EXPECT_GE(checked, 3);
}

}  // namespace
}  // namespace rwl
