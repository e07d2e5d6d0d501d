// Theorem 5.3: |∼rw satisfies the KLM core properties.  The identities hold
// exactly at every finite (N, τ) because Pr_N^τ is a genuine conditional
// probability; we verify them both on the paper's fixture KBs and on
// parameterized sweeps of randomly generated KBs and formulas.
#include <random>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/defaults/klm.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/workload/generators.h"

namespace rwl::defaults {
namespace {

using logic::C;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::V;

class KlmRandomSweep : public ::testing::TestWithParam<int> {
 protected:
  KlmRandomSweep() {
    for (const auto& name : workload::GeneratorPredicates(2)) {
      vocab_.AddPredicate(name, 1);
    }
    for (const auto& name : workload::GeneratorConstants(2)) {
      vocab_.AddConstant(name);
    }
    ctx_.engine = &engine_;
    ctx_.vocabulary = &vocab_;
    ctx_.domain_size = 6;
    ctx_.tolerances = semantics::ToleranceVector::Uniform(0.2);
  }

  logic::Vocabulary vocab_;
  engines::ProfileEngine engine_;
  KlmContext ctx_;
};

TEST_P(KlmRandomSweep, CorePropertiesHold) {
  std::mt19937 rng(42 + GetParam());
  workload::UnaryKbParams params;
  params.num_predicates = 2;
  params.num_constants = 2;
  params.num_statements = 1;
  params.num_facts = 1;

  int applicable_total = 0;
  for (int trial = 0; trial < 40; ++trial) {
    FormulaPtr kb = workload::RandomUnaryKb(params, &rng);
    FormulaPtr kb2 = workload::RandomUnaryKb(params, &rng);
    FormulaPtr phi = workload::RandomQuery(params, &rng);
    FormulaPtr psi = workload::RandomQuery(params, &rng);
    FormulaPtr theta = workload::RandomQuery(params, &rng);

    for (const KlmCheck& check :
         {CheckAnd(ctx_, kb, phi, psi), CheckOr(ctx_, kb, kb2, phi),
          CheckCut(ctx_, kb, theta, phi),
          CheckCautiousMonotonicity(ctx_, kb, theta, phi),
          CheckRightWeakeningMonotone(ctx_, kb, phi, psi),
          CheckReflexivity(ctx_, kb),
          CheckRationalMonotonicityBound(ctx_, kb, theta, phi),
          CheckConditioningIdentity(ctx_, kb, theta, phi)}) {
      if (!check.applicable) continue;
      ++applicable_total;
      EXPECT_TRUE(check.holds)
          << check.detail << "\nKB: " << logic::ToString(kb)
          << "\nphi: " << logic::ToString(phi)
          << "\npsi: " << logic::ToString(psi)
          << "\ntheta: " << logic::ToString(theta);
    }
  }
  EXPECT_GT(applicable_total, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KlmRandomSweep, ::testing::Range(0, 8));

TEST(KlmFixture, BrokenArmExample) {
  // Example 5.4: exactly one of Eric's arms is usable, but we cannot say
  // which.  (Unary rendering: LeftBroken ∨ RightBroken known.)
  logic::Vocabulary vocab;
  for (const char* p :
       {"LeftUsable", "LeftBroken", "RightUsable", "RightBroken"}) {
    vocab.AddPredicate(p, 1);
  }
  vocab.AddConstant("Eric");
  logic::TermPtr x = V("x");
  FormulaPtr kb_arm = Formula::AndAll({
      logic::Default(Formula::True(), P("LeftUsable", x), {"x"}, 1),
      logic::ApproxEq(
          logic::CondProp(P("LeftUsable", x), P("LeftBroken", x), {"x"}),
          0.0, 2),
      logic::Default(Formula::True(), P("RightUsable", x), {"x"}, 3),
      logic::ApproxEq(
          logic::CondProp(P("RightUsable", x), P("RightBroken", x), {"x"}),
          0.0, 4),
      Formula::Or(P("LeftBroken", C("Eric")), P("RightBroken", C("Eric"))),
  });

  engines::ProfileEngine engine;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.04);
  const int n = 40;

  auto pr = [&](const FormulaPtr& q) {
    QueryContext ctx(vocab, kb_arm, /*caching_enabled=*/false);
    auto r = engine.DegreeAt(ctx, q, n, tol);
    EXPECT_TRUE(r.well_defined);
    return r.probability;
  };

  FormulaPtr left = P("LeftUsable", C("Eric"));
  FormulaPtr right = P("RightUsable", C("Eric"));
  // Exactly one arm usable (by default): Pr(left XOR right) → 1.
  double xor_prob = pr(Formula::And(Formula::Or(left, right),
                                    Formula::Not(Formula::And(left, right))));
  EXPECT_GT(xor_prob, 0.85);
  // But no verdict on which one: both marginals near 1/2.
  EXPECT_NEAR(pr(left), 0.5, 0.1);
  EXPECT_NEAR(pr(right), 0.5, 0.1);
}

}  // namespace
}  // namespace rwl::defaults
