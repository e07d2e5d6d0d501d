// Differential property tests for the compiled bytecode pipeline
// (semantics/compile.h + vm.h): on fuzz-generated scenarios the VM must be
// bit-identical to the tree-walking oracle on every world, compile errors
// must replace the walker's process-killing paths, and the sharded engines
// must be bit-identical at every thread count.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/core/query_context.h"
#include "src/engines/exact_engine.h"
#include "src/logic/builder.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/semantics/compile.h"
#include "src/semantics/evaluator.h"
#include "src/semantics/vm.h"
#include "src/testing/montecarlo_engine.h"
#include "src/workload/generators.h"

namespace rwl::semantics {
namespace {

using logic::C;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::V;

ToleranceVector Tol(double v) { return ToleranceVector::Uniform(v); }

void RandomizeWorld(World* world, std::mt19937_64* rng) {
  const auto& vocabulary = world->vocabulary();
  for (int p = 0; p < vocabulary.num_predicates(); ++p) {
    if (world->predicate_arity(p) == 1) {
      for (int d = 0; d < world->domain_size(); ++d) {
        world->SetUnaryBit(p, d, ((*rng)() & 1) != 0);
      }
      continue;
    }
    for (auto& cell : world->predicate_table(p)) {
      cell = static_cast<uint8_t>((*rng)() & 1);
    }
  }
  std::uniform_int_distribution<int> element(0, world->domain_size() - 1);
  for (int f = 0; f < vocabulary.num_functions(); ++f) {
    for (auto& cell : world->function_table(f)) cell = element(*rng);
  }
}

// Asserts VM == walker over `worlds` random worlds at each domain size.
void ExpectAgreement(const FormulaPtr& f, const logic::Vocabulary& vocabulary,
                     const ToleranceVector& tolerances,
                     std::initializer_list<int> domain_sizes, int worlds,
                     uint64_t seed) {
  CompiledFormula compiled = CompileFormula(f, vocabulary);
  ASSERT_TRUE(compiled.ok())
      << compiled.error << " for " << logic::ToString(f);
  for (int n : domain_sizes) {
    World world(&vocabulary, n);
    EvalFrame frame;
    frame.Prepare(*compiled.program, tolerances);
    std::mt19937_64 rng(seed + n);
    for (int w = 0; w < worlds; ++w) {
      RandomizeWorld(&world, &rng);
      const bool walked = Evaluate(f, world, tolerances);
      const bool ran = RunProgram(*compiled.program, world, &frame);
      ASSERT_EQ(walked, ran)
          << logic::ToString(f) << " diverged at N=" << n << " world " << w;
    }
  }
}

TEST(CompiledVm, BitIdenticalToWalkerOnFuzzedUnaryScenarios) {
  std::mt19937 rng(20260730);
  for (int c = 0; c < 40; ++c) {
    workload::UnaryKbParams params;
    params.num_predicates = 1 + static_cast<int>(rng() % 3);
    params.num_constants = 1 + static_cast<int>(rng() % 2);
    params.num_statements = 1 + static_cast<int>(rng() % 3);
    params.num_facts = static_cast<int>(rng() % 3);
    params.default_fraction = 0.4;
    params.max_depth = 1 + static_cast<int>(rng() % 2);

    logic::Vocabulary vocabulary;
    for (const auto& p : workload::GeneratorPredicates(params.num_predicates)) {
      vocabulary.AddPredicate(p, 1);
    }
    for (const auto& k : workload::GeneratorConstants(params.num_constants)) {
      vocabulary.AddConstant(k);
    }
    FormulaPtr kb = workload::RandomUnaryKb(params, &rng);
    logic::RegisterSymbols(kb, &vocabulary);
    ExpectAgreement(kb, vocabulary, Tol(0.15), {1, 2, 3}, 12, 7000 + c);

    for (const auto& query :
         workload::RandomQueryBatch(params, 3, &rng)) {
      logic::RegisterSymbols(query, &vocabulary);
      ExpectAgreement(query, vocabulary, Tol(0.15), {2, 3}, 8, 9000 + c);
    }
  }
}

TEST(CompiledVm, BitIdenticalToWalkerOnFuzzedMixedScenarios) {
  std::mt19937 rng(20260731);
  for (int c = 0; c < 25; ++c) {
    workload::MixedKbParams params;
    params.num_unary = 1 + static_cast<int>(rng() % 2);
    params.num_binary = 1;
    params.num_constants = 1 + static_cast<int>(rng() % 2);
    params.num_facts = 1 + static_cast<int>(rng() % 2);
    params.num_axioms = static_cast<int>(rng() % 3);
    params.num_statements = static_cast<int>(rng() % 2);
    params.max_depth = 2;

    logic::Vocabulary vocabulary;
    for (const auto& p : workload::GeneratorPredicates(params.num_unary)) {
      vocabulary.AddPredicate(p, 1);
    }
    for (const auto& r :
         workload::GeneratorBinaryPredicates(params.num_binary)) {
      vocabulary.AddPredicate(r, 2);
    }
    for (const auto& k : workload::GeneratorConstants(params.num_constants)) {
      vocabulary.AddConstant(k);
    }
    FormulaPtr kb = workload::RandomMixedKb(params, &rng);
    logic::RegisterSymbols(kb, &vocabulary);
    ExpectAgreement(kb, vocabulary, Tol(0.2), {1, 2, 3}, 10, 1300 + c);

    FormulaPtr query = workload::RandomMixedQuery(params, &rng);
    logic::RegisterSymbols(query, &vocabulary);
    ExpectAgreement(query, vocabulary, Tol(0.2), {2, 3}, 8, 1700 + c);
  }
}

TEST(CompiledVm, ShadowedVariablesResolveToTheInnermostBinding) {
  logic::Vocabulary vocabulary;
  vocabulary.AddPredicate("P", 1);
  vocabulary.AddPredicate("Q", 1);

  // ∀x. (P(x) ∨ ∃x. (Q(x) ∧ ¬P(x))) — the inner x shadows the outer.
  FormulaPtr inner =
      Formula::Exists("x", Formula::And(P("Q", V("x")),
                                        Formula::Not(P("P", V("x")))));
  FormulaPtr f = Formula::ForAll("x", Formula::Or(P("P", V("x")), inner));
  ExpectAgreement(f, vocabulary, Tol(0.1), {1, 2, 3, 4}, 24, 42);

  // Proportion whose tuple variable shadows a quantifier variable, with a
  // nested proportion re-binding it once more.
  using logic::Expr;
  FormulaPtr nested_cmp = Formula::Compare(
      Expr::Proportion(P("Q", V("x")), {"x"}), logic::CompareOp::kApproxGeq,
      Expr::Constant(0.25), 2);
  FormulaPtr body = Formula::And(P("P", V("x")), nested_cmp);
  FormulaPtr g = Formula::ForAll(
      "x", Formula::Implies(
               P("Q", V("x")),
               Formula::Compare(
                   Expr::Conditional(body, P("Q", V("x")), {"x"}),
                   logic::CompareOp::kApproxLeq, Expr::Constant(0.9), 1)));
  ExpectAgreement(g, vocabulary, Tol(0.2), {1, 2, 3}, 24, 43);
}

TEST(CompiledVm, RepeatedProportionVariableMatchesWalker) {
  logic::Vocabulary vocabulary;
  vocabulary.AddPredicate("R", 2);
  using logic::Expr;
  // ||R(x, x)||_{x, x}: a degenerate tuple list the walker resolves by
  // last-write-wins; the compiler must bind identically.
  FormulaPtr f = Formula::Compare(
      Expr::Proportion(P("R", V("x"), V("x")), {"x", "x"}),
      logic::CompareOp::kApproxEq, Expr::Constant(0.5), 1);
  ExpectAgreement(f, vocabulary, Tol(0.3), {2, 3}, 16, 44);
}

TEST(CompiledVm, FunctionTermsAndEqualityMatchWalker) {
  logic::Vocabulary vocabulary;
  vocabulary.AddPredicate("P", 1);
  vocabulary.AddFunction("f", 1);
  vocabulary.AddConstant("K");
  // ∃x. (f(f(x)) = K ∧ P(f(x)))
  logic::TermPtr fx = logic::Term::Apply("f", {V("x")});
  logic::TermPtr ffx = logic::Term::Apply("f", {fx});
  FormulaPtr f = Formula::Exists(
      "x", Formula::And(Formula::Equal(ffx, C("K")), P("P", fx)));
  ExpectAgreement(f, vocabulary, Tol(0.1), {1, 2, 3, 4}, 24, 45);
}

TEST(CompiledVm, ConstantArithmeticIsFolded) {
  logic::Vocabulary vocabulary;
  vocabulary.AddPredicate("P", 1);
  using logic::Expr;
  // (0.125 + 0.25) * 0.5 ≤ ||P(x)||_x — the left side must fold to a
  // single constant-load at compile time.
  logic::ExprPtr folded = Expr::Mul(Expr::Add(Expr::Constant(0.125),
                                              Expr::Constant(0.25)),
                                    Expr::Constant(0.5));
  FormulaPtr f = Formula::Compare(folded, logic::CompareOp::kLeq,
                                  Expr::Proportion(P("P", V("x")), {"x"}));
  CompiledFormula compiled = CompileFormula(f, vocabulary);
  ASSERT_TRUE(compiled.ok());
  int const_loads = 0;
  int arithmetic = 0;
  for (const auto& ins : compiled.program->code) {
    const_loads += ins.op == Op::kPushConst ? 1 : 0;
    arithmetic +=
        ins.op == Op::kAdd || ins.op == Op::kSub || ins.op == Op::kMul ? 1
                                                                       : 0;
  }
  EXPECT_EQ(const_loads, 1);
  EXPECT_EQ(arithmetic, 0);
  ExpectAgreement(f, vocabulary, Tol(0.1), {2, 3}, 16, 46);
}

TEST(CompiledVm, UnboundVariableIsACompileError) {
  logic::Vocabulary vocabulary;
  vocabulary.AddPredicate("P", 1);
  CompiledFormula compiled = CompileFormula(P("P", V("x")), vocabulary);
  EXPECT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error.find("unbound variable x"), std::string::npos);
}

TEST(CompiledVm, UnknownSymbolsAreCompileErrors) {
  logic::Vocabulary vocabulary;
  CompiledFormula no_pred =
      CompileFormula(Formula::ForAll("x", P("Missing", V("x"))), vocabulary);
  EXPECT_FALSE(no_pred.ok());
  EXPECT_NE(no_pred.error.find("unknown predicate"), std::string::npos);

  CompiledFormula no_func = CompileFormula(
      Formula::Exists("x", Formula::Equal(V("x"), C("Ghost"))), vocabulary);
  EXPECT_FALSE(no_func.ok());
  EXPECT_NE(no_func.error.find("unknown function"), std::string::npos);
}

TEST(CompiledVm, EnginesGiveUpInsteadOfAbortingOnIllFormedInput) {
  logic::Vocabulary vocabulary;
  vocabulary.AddPredicate("P", 1);
  FormulaPtr open_query = P("P", V("x"));  // free variable

  engines::ExactEngine exact;
  QueryContext ctx(vocabulary, Formula::True(), /*caching_enabled=*/false);
  engines::FiniteResult r = exact.DegreeAt(ctx, open_query, 2, Tol(0.1));
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.well_defined);

  testing::MonteCarloEngine::Options options;
  options.num_samples = 100;
  testing::MonteCarloEngine mc(options);
  r = mc.DegreeAt(ctx, open_query, 2, Tol(0.1));
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.well_defined);
}

TEST(CompiledVm, ExactEngineBitIdenticalAcrossThreadCounts) {
  logic::Vocabulary vocabulary;
  vocabulary.AddPredicate("P", 1);
  vocabulary.AddPredicate("R", 2);
  vocabulary.AddConstant("K");
  FormulaPtr kb = Formula::And(
      Formula::ForAll("x", Formula::Implies(P("R", V("x"), V("x")),
                                            P("P", V("x")))),
      P("P", C("K")));
  FormulaPtr query = Formula::Exists("x", P("R", C("K"), V("x")));

  engines::ExactEngine serial(26.0, 1);
  for (int threads : {2, 3, 8}) {
    engines::ExactEngine sharded(26.0, threads);
    QueryContext ctx(vocabulary, kb, /*caching_enabled=*/false);
    for (int n : {2, 3}) {
      engines::FiniteResult a = serial.DegreeAt(ctx, query, n, Tol(0.1));
      engines::FiniteResult b = sharded.DegreeAt(ctx, query, n, Tol(0.1));
      EXPECT_EQ(a.well_defined, b.well_defined) << "N=" << n;
      EXPECT_EQ(a.probability, b.probability) << "N=" << n;
      EXPECT_EQ(a.log_numerator, b.log_numerator) << "N=" << n;
      EXPECT_EQ(a.log_denominator, b.log_denominator) << "N=" << n;
    }
  }
}

TEST(CompiledVm, MonteCarloBitIdenticalAcrossThreadCounts) {
  logic::Vocabulary vocabulary;
  vocabulary.AddPredicate("R", 2);
  vocabulary.AddConstant("A");
  FormulaPtr kb = Formula::ForAll("x", P("R", V("x"), V("x")));
  FormulaPtr query = P("R", C("A"), C("A"));

  testing::MonteCarloEngine::Options serial_options;
  serial_options.num_samples = 30'000;
  serial_options.num_threads = 1;
  testing::MonteCarloEngine::Options pooled_options = serial_options;
  pooled_options.num_threads = 4;

  testing::MonteCarloEngine serial(serial_options);
  testing::MonteCarloEngine pooled(pooled_options);
  QueryContext ctx(vocabulary, kb, /*caching_enabled=*/false);
  for (int n : {3, 5}) {
    engines::FiniteResult a = serial.DegreeAt(ctx, query, n, Tol(0.1));
    engines::FiniteResult b = pooled.DegreeAt(ctx, query, n, Tol(0.1));
    EXPECT_EQ(a.well_defined, b.well_defined) << "N=" << n;
    EXPECT_EQ(a.probability, b.probability) << "N=" << n;
    EXPECT_EQ(a.log_numerator, b.log_numerator) << "N=" << n;
    EXPECT_EQ(a.log_denominator, b.log_denominator) << "N=" << n;
  }
}

}  // namespace
}  // namespace rwl::semantics
