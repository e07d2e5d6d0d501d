#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/maxent_engine.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"
#include "src/maxent/constraints.h"
#include "src/maxent/solver.h"
#include "tests/maxent_golden.h"

#ifndef RWL_TEST_DATA_DIR
#error "RWL_TEST_DATA_DIR must point at tests/data (set by CMakeLists.txt)"
#endif

namespace rwl {
namespace {

using logic::C;
using logic::CondProp;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::Prop;
using logic::V;

TEST(MaxEntSolver, UnconstrainedIsUniform) {
  maxent::Problem problem;
  problem.dim = 4;
  maxent::Solution s = maxent::Solve(problem);
  ASSERT_TRUE(s.feasible);
  for (double p : s.p) EXPECT_NEAR(p, 0.25, 1e-6);
  EXPECT_NEAR(s.entropy, std::log(4.0), 1e-6);
}

TEST(MaxEntSolver, SupportRestriction) {
  maxent::Problem problem;
  problem.dim = 4;
  problem.support = {true, false, true, false};
  maxent::Solution s = maxent::Solve(problem);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.p[0], 0.5, 1e-6);
  EXPECT_NEAR(s.p[1], 0.0, 1e-12);
  EXPECT_NEAR(s.p[2], 0.5, 1e-6);
}

TEST(MaxEntSolver, SingleMassConstraint) {
  // p0 + p1 ≤ 0.3 over 4 cells: maxent puts p0 = p1 = 0.15, p2 = p3 = 0.35.
  maxent::Problem problem;
  problem.dim = 4;
  maxent::LinearConstraint c;
  c.coef = {1.0, 1.0, 0.0, 0.0};
  c.bound = 0.3;
  problem.constraints.push_back(c);
  maxent::Solution s = maxent::Solve(problem);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.p[0], 0.15, 5e-3);
  EXPECT_NEAR(s.p[1], 0.15, 5e-3);
  EXPECT_NEAR(s.p[2], 0.35, 5e-3);
  EXPECT_NEAR(s.p[3], 0.35, 5e-3);
}

TEST(MaxEntSolver, EqualityViaPairedInequalities) {
  // p0 = 0.7 exactly (paired bounds with τ = 0).
  maxent::Problem problem;
  problem.dim = 2;
  maxent::LinearConstraint upper;
  upper.coef = {1.0, 0.0};
  upper.bound = 0.7;
  maxent::LinearConstraint lower;
  lower.coef = {-1.0, 0.0};
  lower.bound = -0.7;
  problem.constraints = {upper, lower};
  maxent::Solution s = maxent::Solve(problem);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.p[0], 0.7, 2e-3);
  EXPECT_NEAR(s.p[1], 0.3, 2e-3);
}

TEST(MaxEntSolver, InfeasibleDetected) {
  // p0 ≥ 0.8 and p0 ≤ 0.1 cannot both hold.
  maxent::Problem problem;
  problem.dim = 2;
  maxent::LinearConstraint a;
  a.coef = {-1.0, 0.0};
  a.bound = -0.8;
  maxent::LinearConstraint b;
  b.coef = {1.0, 0.0};
  b.bound = 0.1;
  problem.constraints = {a, b};
  maxent::Solution s = maxent::Solve(problem);
  EXPECT_FALSE(s.feasible);
}

// Every recorded problem (tests/maxent_golden.h) solves to the recorded
// bits: p, entropy, max_violation and the iteration count.
TEST(MaxEntSolver, ReproducesGoldenBits) {
  std::ifstream in(std::string(RWL_TEST_DATA_DIR) + "/maxent_golden.txt");
  ASSERT_TRUE(in.good());
  std::vector<std::string> recorded;
  for (std::string line; std::getline(in, line);) recorded.push_back(line);
  const auto problems = maxent_golden::GoldenProblems();
  ASSERT_EQ(recorded.size(), problems.size());
  int mismatches = 0;
  for (size_t i = 0; i < problems.size(); ++i) {
    const std::string row = maxent_golden::GoldenRow(
        problems[i].name, maxent::Solve(problems[i].problem));
    if (row != recorded[i]) ++mismatches;
    EXPECT_EQ(row, recorded[i]);
  }
  EXPECT_EQ(mismatches, 0);
}

// unary2-maxent-01's KB leaves the uniform start feasible, so every stage
// reaches a bitwise fixed point at the step cap and skips the rest of its
// iterations; the reported count still includes them.
TEST(MaxEntSolver, FixedPointExitSkipsRepeatedIterations) {
  const maxent::SolverOptions options;
  const int full = options.penalty_stages * options.inner_iterations;
  for (double scale : {1.0, 0.3, 0.1}) {
    maxent::Problem problem = maxent_golden::CatalogProblem(
        maxent_golden::MaxEntCatalogKbs()[1], scale);
    maxent::Solution s = maxent::Solve(problem, options);
    ASSERT_TRUE(s.feasible);
    EXPECT_EQ(s.iterations, full);
    EXPECT_GT(s.fixed_point_skips, full * 9 / 10) << "scale " << scale;
  }
  // A problem whose iterate keeps moving never takes the exit.
  maxent::Problem moving;
  moving.dim = 4;
  maxent::LinearConstraint c;
  c.coef = {1.0, 1.0, 0.0, 0.0};
  c.bound = 0.3;
  moving.constraints.push_back(c);
  EXPECT_EQ(maxent::Solve(moving).fixed_point_skips, 0);
}

TEST(MaxEntConstraints, ExtractsTaxonomyAndStatistics) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("Bird", 1);
  vocab.AddPredicate("Penguin", 1);
  vocab.AddConstant("Tweety");
  FormulaPtr kb = Formula::AndAll({
      Formula::ForAll("x", Formula::Implies(P("Penguin", V("x")),
                                            P("Bird", V("x")))),
      logic::ApproxEq(CondProp(P("Penguin", V("x")), P("Bird", V("x")),
                               {"x"}),
                      0.1, 1),
      P("Penguin", C("Tweety")),
  });
  auto extracted = maxent::ExtractUnaryKb(
      vocab, kb, semantics::ToleranceVector::Uniform(0.01));
  ASSERT_TRUE(extracted.ok) << extracted.error;
  // Penguin ∧ ¬Bird excluded from the support.
  int excluded = 0;
  for (bool s : extracted.problem.support) excluded += s ? 0 : 1;
  EXPECT_EQ(excluded, 1);
  EXPECT_EQ(extracted.problem.constraints.size(), 2u);  // the ≈ pair
  ASSERT_TRUE(extracted.constant_facts.count("Tweety") > 0);
}

TEST(MaxEntConstraints, RejectsNonUnary) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("Likes", 2);
  auto extracted = maxent::ExtractUnaryKb(
      vocab, Formula::True(), semantics::ToleranceVector::Uniform(0.01));
  EXPECT_FALSE(extracted.ok);
}

TEST(MaxEntConstraints, RejectsUnsupportedConjuncts) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  auto extracted = maxent::ExtractUnaryKb(
      vocab, Formula::Exists("x", P("A", V("x"))),
      semantics::ToleranceVector::Uniform(0.01));
  EXPECT_FALSE(extracted.ok);
}

TEST(MaxEntEngine, Section6WorkedExample) {
  // Section 6: KB = ∀x P1(x) ∧ ||P1 ∧ P2||_x ⪯ 0.3 gives the maxent point
  // (0.3, 0.7, 0, 0) and Pr(P2(c) | KB) = 0.3.
  logic::Vocabulary vocab;
  vocab.AddPredicate("P1", 1);
  vocab.AddPredicate("P2", 1);
  vocab.AddConstant("C0");
  FormulaPtr kb = Formula::And(
      Formula::ForAll("x", P("P1", V("x"))),
      logic::ApproxLeq(Prop(Formula::And(P("P1", V("x")), P("P2", V("x"))),
                            {"x"}),
                       0.3, 1));
  engines::MaxEntEngine engine;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  auto result = engine.InferLimit(ctx, P("P2", C("C0")),
                                  semantics::ToleranceVector::Uniform(0.02));
  ASSERT_TRUE(result.supported) << result.note;
  EXPECT_NEAR(result.value, 0.3, 0.02);
}

TEST(MaxEntEngine, Example5_29_NoIndependenceFromMaxent) {
  // KB: ||Black|Bird|| ≈ 0.2 ∧ ||Bird|| ≈ 0.1.  Pr(Black(Clyde)) ≈ 0.47,
  // NOT 0.2 (maximum entropy does not impose independence here).
  logic::Vocabulary vocab;
  vocab.AddPredicate("Black", 1);
  vocab.AddPredicate("Bird", 1);
  vocab.AddConstant("Clyde");
  FormulaPtr kb = Formula::And(
      logic::ApproxEq(CondProp(P("Black", V("x")), P("Bird", V("x")), {"x"}),
                      0.2, 1),
      logic::ApproxEq(Prop(P("Bird", V("x")), {"x"}), 0.1, 2));
  engines::MaxEntEngine engine;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  auto result = engine.InferLimit(ctx, P("Black", C("Clyde")),
                                  semantics::ToleranceVector::Uniform(0.01));
  ASSERT_TRUE(result.supported) << result.note;
  // Closed form: among non-birds the maxent point splits the remaining 0.9
  // evenly between Black and ¬Black; total black mass = 0.1·0.2 + 0.45.
  EXPECT_NEAR(result.value, 0.47, 0.02);
}

TEST(MaxEntEngine, ConditioningOnConstantFacts) {
  // Pr(Hep(Eric) | Jaun(Eric), ||Hep|Jaun||≈0.8) = 0.8 via the maxent path.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Hep", 1);
  vocab.AddPredicate("Jaun", 1);
  vocab.AddConstant("Eric");
  FormulaPtr kb = Formula::And(
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1));
  engines::MaxEntEngine engine;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  auto result = engine.InferLimit(ctx, P("Hep", C("Eric")),
                                  semantics::ToleranceVector::Uniform(0.01));
  ASSERT_TRUE(result.supported) << result.note;
  EXPECT_NEAR(result.value, 0.8, 0.02);
}

TEST(MaxEntEngine, ConcentrationMatchesProfileEngine) {
  // The profile engine at growing N approaches the maxent-engine limit
  // (the Section 6 concentration phenomenon).
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddPredicate("B", 1);
  vocab.AddConstant("K");
  FormulaPtr kb = Formula::And(
      logic::ApproxEq(CondProp(P("B", V("x")), P("A", V("x")), {"x"}), 0.6,
                      1),
      P("A", C("K")));
  FormulaPtr query = P("B", C("K"));
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.03);

  engines::MaxEntEngine maxent_engine;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  auto limit = maxent_engine.InferAt(ctx, query, tol);
  ASSERT_TRUE(limit.supported) << limit.note;

  engines::ProfileEngine profile;
  double prev_gap = 1.0;
  for (int n : {16, 48, 96}) {
    auto finite = profile.DegreeAt(ctx, query, n, tol);
    ASSERT_TRUE(finite.well_defined);
    double gap = std::fabs(finite.probability - limit.value);
    EXPECT_LT(gap, prev_gap + 0.05) << "N=" << n;
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.05);
}

}  // namespace
}  // namespace rwl
