// Section 5.3: with conflicting hard defaults, the limiting degree of
// belief depends on how ⃗τ → 0 — the tolerance magnitudes are default
// priorities.  This test computes the Nixon diamond numerically with the
// profile engine under three tolerance orderings and checks the paper's
// three regimes: τ1 ≪ τ2 → 1, τ1 ≫ τ2 → 0, τ1 = τ2 → 1/2.
#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"

namespace rwl {
namespace {

using logic::C;
using logic::CondProp;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::V;

class NixonPriorityTest : public ::testing::Test {
 protected:
  NixonPriorityTest() {
    vocab_.AddPredicate("Pacifist", 1);
    vocab_.AddPredicate("Quaker", 1);
    vocab_.AddPredicate("Republican", 1);
    vocab_.AddConstant("Nixon");
    kb_ = Formula::AndAll({
        // Quakers are typically pacifists (tolerance index 1).
        logic::ApproxEq(CondProp(P("Pacifist", V("x")), P("Quaker", V("x")),
                                 {"x"}),
                        1.0, 1),
        // Republicans are typically not (tolerance index 2).
        logic::ApproxEq(CondProp(P("Pacifist", V("x")),
                                 P("Republican", V("x")), {"x"}),
                        0.0, 2),
        P("Quaker", C("Nixon")),
        P("Republican", C("Nixon")),
        logic::ExistsUnique("x", Formula::And(P("Quaker", V("x")),
                                              P("Republican", V("x")))),
    });
  }

  double PrPacifist(double tau1, double tau2, int n) {
    semantics::ToleranceVector tol(0.05);
    tol.Set(1, tau1);
    tol.Set(2, tau2);
    engines::ProfileEngine engine;
    QueryContext ctx(vocab_, kb_, /*caching_enabled=*/false);
    auto r = engine.DegreeAt(ctx, P("Pacifist", C("Nixon")), n, tol);
    EXPECT_TRUE(r.well_defined);
    return r.probability;
  }

  logic::Vocabulary vocab_;
  FormulaPtr kb_;
};

TEST_F(NixonPriorityTest, StrongerQuakerDefaultWins) {
  // τ1 ≪ τ2: "almost all Quakers are pacifists" is much closer to "all".
  double p = PrPacifist(0.01, 0.25, 16);
  EXPECT_GT(p, 0.8);
}

TEST_F(NixonPriorityTest, StrongerRepublicanDefaultWins) {
  double p = PrPacifist(0.25, 0.01, 16);
  EXPECT_LT(p, 0.2);
}

TEST_F(NixonPriorityTest, EqualStrengthIsAHalf) {
  double p = PrPacifist(0.08, 0.08, 16);
  EXPECT_NEAR(p, 0.5, 0.1);
}

TEST_F(NixonPriorityTest, NonRobustnessVisibleAcrossOrderings) {
  // The same KB at the same N gives wildly different values under the two
  // orderings — the numeric face of the nonexistent limit (Theorem 5.26's
  // conflicting-defaults case).
  double quaker_first = PrPacifist(0.01, 0.25, 14);
  double republican_first = PrPacifist(0.25, 0.01, 14);
  EXPECT_GT(quaker_first - republican_first, 0.5);
}

}  // namespace
}  // namespace rwl
