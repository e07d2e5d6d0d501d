#include "src/engines/profile_engine.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/logic/builder.h"
#include "src/logic/parser.h"
#include "src/logic/transform.h"

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

TEST(ProfileEngine, SupportsOnlyUnaryRelational) {
  ProfileEngine engine;
  logic::Vocabulary unary;
  unary.AddPredicate("A", 1);
  unary.AddConstant("K");
  QueryContext unary_ctx(unary, Formula::True(), /*caching_enabled=*/false);
  EXPECT_TRUE(engine.Supports(unary_ctx, Formula::True(), 16));

  logic::Vocabulary binary;
  binary.AddPredicate("R", 2);
  QueryContext binary_ctx(binary, Formula::True(), /*caching_enabled=*/false);
  EXPECT_FALSE(engine.Supports(binary_ctx, Formula::True(), 16));

  logic::Vocabulary functional;
  functional.AddPredicate("A", 1);
  functional.AddFunction("F", 1);
  QueryContext functional_ctx(functional, Formula::True(),
                              /*caching_enabled=*/false);
  EXPECT_FALSE(engine.Supports(functional_ctx, Formula::True(), 16));
}

TEST(ProfileEngine, TrivialPriorIsHalf) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("White", 1);
  vocab.AddConstant("B");
  ProfileEngine engine;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  for (int n : {1, 4, 16, 64}) {
    FiniteResult r = engine.DegreeAt(ctx, P("White", C("B")), n, Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    EXPECT_NEAR(r.probability, 0.5, 1e-9) << "N=" << n;
  }
}

TEST(ProfileEngine, DirectInferenceAtLargeN) {
  // Example 5.8 core: Pr(Hep(Eric) | Jaun(Eric) ∧ ||Hep|Jaun|| ≈ 0.8) ≈ 0.8.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Hep", 1);
  vocab.AddPredicate("Jaun", 1);
  vocab.AddConstant("Eric");
  FormulaPtr kb = Formula::And(
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1));
  ProfileEngine engine;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, P("Hep", C("Eric")), 60, Tol(0.05));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 0.8, 0.03);
}

TEST(ProfileEngine, WorldCountMatchesClosedForm) {
  // KB = true over one predicate: total worlds = 2^N.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ProfileEngine engine;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 10, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.log_denominator, 10 * std::log(2.0), 1e-9);
}

TEST(ProfileEngine, WorldCountWithConstant) {
  // One predicate + one constant: 2^N · N interpretations.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddConstant("K");
  ProfileEngine engine;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 8, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.log_denominator, 8 * std::log(2.0) + std::log(8.0), 1e-9);
}

TEST(ProfileEngine, TaxonomyPruningMatchesSemantics) {
  // ∀x(Penguin ⇒ Bird): atoms with Penguin ∧ ¬Bird are forced empty.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Bird", 1);
  vocab.AddPredicate("Penguin", 1);
  FormulaPtr kb = Formula::ForAll(
      "x", Formula::Implies(P("Penguin", V("x")), P("Bird", V("x"))));
  ProfileEngine engine;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 6, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  // Each element independently: 3 allowed atoms of 4 → 3^6 worlds.
  EXPECT_NEAR(r.log_denominator, 6 * std::log(3.0), 1e-9);
}

TEST(ProfileEngine, UnsatisfiableIsUndefined) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  FormulaPtr kb = Formula::And(Formula::Exists("x", P("A", V("x"))),
                               Formula::ForAll("x", Formula::Not(P("A", V("x")))));
  ProfileEngine engine;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 8, Tol(0.1));
  EXPECT_FALSE(r.well_defined);
}

TEST(ProfileEngine, EqualityBetweenConstants) {
  logic::Vocabulary vocab;
  vocab.AddConstant("C1");
  vocab.AddConstant("C2");
  // With an empty predicate set there is a single atom; placements encode
  // only coincidence.  Pr(C1 = C2) = 1/N.
  ProfileEngine engine;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  for (int n : {2, 5, 10}) {
    FiniteResult r = engine.DegreeAt(ctx, logic::Eq(C("C1"), C("C2")), n,
                                     Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    EXPECT_NEAR(r.probability, 1.0 / n, 1e-9) << "N=" << n;
  }
}

TEST(ProfileEngine, DefaultsConcentrate) {
  // Birds typically fly; Tweety is a bird ⇒ Pr(Fly(Tweety)) → 1.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Bird", 1);
  vocab.AddPredicate("Fly", 1);
  vocab.AddConstant("Tweety");
  FormulaPtr kb = Formula::And(
      P("Bird", C("Tweety")),
      logic::Default(P("Bird", V("x")), P("Fly", V("x")), {"x"}));
  ProfileEngine engine;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, P("Fly", C("Tweety")), 80, Tol(0.02));
  ASSERT_TRUE(r.well_defined);
  EXPECT_GT(r.probability, 0.95);
}

TEST(ProfileEngine, ExistentialQuantifierOverProfiles) {
  // Pr(∃x A(x)) = 1 - 2^-N.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ProfileEngine engine;
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, Formula::Exists("x", P("A", V("x"))), 6,
                                   Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 1.0 - std::pow(2.0, -6), 1e-9);
}

TEST(ProfileEngine, TwoVariableProportionQuery) {
  // Pr over worlds of ||A(x) ∧ A(y)||_{x,y} ≤ 1: trivially true.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ProfileEngine engine;
  FormulaPtr query = Formula::Compare(
      Prop(Formula::And(P("A", V("x")), P("A", V("y"))), {"x", "y"}),
      logic::CompareOp::kLeq, logic::Num(1.0));
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, query, 6, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 1.0, 1e-12);
}

TEST(ProfileEngine, BudgetExhaustionReported) {
  ProfileEngine::Options options;
  options.max_leaves = 3;
  ProfileEngine engine(options);
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddPredicate("B", 1);
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 32, Tol(0.1));
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.well_defined);
}


// ---- Golden bits: every leaf-evaluation site reproduces the tree walk ----
//
// The rows below were recorded with the name-keyed tree walk that the
// compiled leaf program replaced.  Each case is swept over N ∈ {8, 16, 32}
// and τ scales {1, 0.5, 0.25}, on the KB as given and on the KB with
// `appended` asserted; every evaluation path must reproduce the recorded
// probability and log-counts bit for bit.

struct GoldenCase {
  const char* id;
  const char* kb;
  const char* query;
  std::vector<std::string> extra_constants;
  double tolerance;
  Prior prior;
  // Asserted by the patch check: one constant-free conjunct and one
  // constant-dependent conjunct.
  const char* appended;
};

const std::vector<GoldenCase>& GoldenCases() {
  static const auto* cases = new std::vector<GoldenCase>{
      {"E5.24",
       "(0.7 <~_1 #(Chirps(x) ; Bird(x))[x]) & "
       "(#(Chirps(x) ; Bird(x))[x] <~_2 0.8)\n"
       "(0 <~_3 #(Chirps(x) ; Magpie(x))[x]) & "
       "(#(Chirps(x) ; Magpie(x))[x] <~_4 0.99)\n"
       "forall x. (Magpie(x) => Bird(x))\n"
       "Magpie(Tweety)\n",
       "Chirps(Tweety)", {}, 0.04, Prior::kUniformWorlds,
       "#(Chirps(x))[x] <~ 0.75\n"
       "Chirps(Tweety) | #(Bird(x))[x] <~ 0.9\n"},
      {"S7.2",
       "forall x. (!White(x) <=> (Red(x) | Blue(x)))\n"
       "forall x. !(Red(x) & Blue(x))\n",
       "White(B)", {"B"}, 0.04, Prior::kUniformWorlds,
       "#(White(x))[x] >~ 0.2\n"
       "!Red(B)\n"},
      {"S5.5-poole",
       "forall x. (Bird(x) <=> (Emu(x) | Penguin(x)))\n"
       "forall x. !(Emu(x) & Penguin(x))\n"
       "#(Emu(x) ; Bird(x))[x] ~=_1 0\n"
       "#(Penguin(x) ; Bird(x))[x] ~=_2 0\n"
       "0.2 <~_3 #(Bird(x))[x]\n",
       "Bird(Tweety)", {"Tweety"}, 0.5, Prior::kUniformWorlds,
       "#(Emu(x))[x] <~ 0.5\n"
       "Bird(Tweety)\n"},
      {"propensities",
       "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"
       "Jaun(Eric)\n",
       "Hep(Eric)", {}, 0.1, Prior::kRandomPropensities,
       "#(Hep(x))[x] <~ 0.7\n"
       "!Hep(Eric) | #(Jaun(x))[x] >~ 0.3\n"},
      // Outside the class fragment: a two-variable proportion, a nested
      // quantifier with equality, `x = K`, and a proportion whose body
      // mentions a constant — all on the slot-indexed walker.
      {"fallback",
       "#(A(x) & B(y))[x,y] <~ 0.3\n"
       "forall x. (A(x) => exists y. (B(y) & !(y = x)))\n"
       "exists x. (x = K & B(x))\n"
       "#(A(x) ; !(x = K))[x] ~= 0.5\n",
       "A(L) | K = L", {"L"}, 0.1, Prior::kUniformWorlds,
       "exists x. (A(x) & !(x = L))\n"
       "#(B(x) ; !(x = L))[x] >~ 0.1\n"},
      // bench_eval's four-constant case: 756 placements per leaf, a static
      // constant-dependent KB part and a static query.
      {"placements",
       "#(A(x) ; B(x))[x] ~= 0.6\n"
       "A(C1) | B(C2)\n"
       "!(C3 = C4) & B(C3)\n",
       "A(C1) & !A(C4)", {}, 0.04, Prior::kUniformWorlds,
       "#(A(x))[x] <~ 0.7\n"
       "!B(C4) | A(C2)\n"},
      // A constant-dependent conjunct whose verdict depends on the counts
      // as well as the placement, with a static query.
      {"count-dependent",
       "#(A(x) ; !(x = K))[x] ~= 0.5\n"
       "#(B(x))[x] <~ 0.6\n",
       "B(K) & !(K = L)", {"L"}, 0.1, Prior::kUniformWorlds,
       "#(A(x))[x] >~ 0.2\n"
       "A(L) | B(K)\n"},
  };
  return *cases;
}

struct GoldenPoint {
  const char* id;
  int appended;
  int n;
  double scale;
  int well_defined;
  uint64_t probability;
  uint64_t log_numerator;
  uint64_t log_denominator;
};

const std::vector<GoldenPoint>& GoldenPoints() {
  static const auto* points = new std::vector<GoldenPoint>{
      {"E5.24", 0, 8, 1, 1,
       0x3fe76fc64f52ee08, 0x402b0b25cfbdfd72, 0x402baa9a5f24be83},
      {"E5.24", 0, 16, 1, 1,
       0x3fe703416339fdd6, 0x403c20c979b625af, 0x403c752ff86bdc0f},
      {"E5.24", 0, 32, 1, 1,
       0x3fe68d022b9152c1, 0x404c5a0e28166e4b, 0x404c86d9ccf8211a},
      {"E5.24", 0, 8, 0.5, 1,
       0x3fe83a83a83a83a4, 0x4029b2024f2b3eac, 0x402a4072f9d65012},
      {"E5.24", 0, 16, 0.5, 1,
       0x3fe79fa6e269076f, 0x403bc31237fc0fdd, 0x403c10c39b85b8cb},
      {"E5.24", 0, 32, 0.5, 1,
       0x3fe6ee36cba1f542, 0x404c34b7af71faca, 0x404c5f602d6c838e},
      {"E5.24", 0, 8, 0.25, 1,
       0x3fe4aaaaaaaaaaa7, 0x40289f6bc746fa57, 0x40297f464436de5e},
      {"E5.24", 0, 16, 0.25, 1,
       0x3fe668281eacd403, 0x403b8821b0d21de9, 0x403be35caa876b0b},
      {"E5.24", 0, 32, 0.25, 1,
       0x3fe725f17243e9cc, 0x404c09de36cb0257, 0x404c335116d75ec1},
      {"E5.24", 1, 8, 1, 1,
       0x3fe773b67559dd2d, 0x402ae57d0571ae9c, 0x402b849b93e6f228},
      {"E5.24", 1, 16, 1, 1,
       0x3fe6ef4096005579, 0x403c14a4a6bef428, 0x403c69ea0ba3673b},
      {"E5.24", 1, 32, 1, 1,
       0x3fe68b4112a7f4e9, 0x404c59b16673ebaa, 0x404c868700d4601d},
      {"E5.24", 1, 8, 0.5, 1,
       0x3fe88aa56289a7da, 0x40298facf5b9ba20, 0x402a178b1f17cea5},
      {"E5.24", 1, 16, 0.5, 1,
       0x3fe7a0bb25a4ba44, 0x403bb4ce6f51c913, 0x403c027421603ee5},
      {"E5.24", 1, 32, 0.5, 1,
       0x3fe6e87c2fcb419e, 0x404c32be711bafdc, 0x404c5d86edcf7c81},
      {"E5.24", 1, 8, 0.25, 1,
       0x3fe5216028695bd9, 0x402882377458b094, 0x402956b5882f269e},
      {"E5.24", 1, 16, 0.25, 1,
       0x3fe66ec7c2f30712, 0x403b7ca3c49354b2, 0x403bd7931ca1f81a},
      {"E5.24", 1, 32, 0.25, 1,
       0x3fe7211dfd6c1222, 0x404c0776ebb6db3e, 0x404c31047e1b1575},
      {"S7.2", 0, 8, 1, 1,
       0x3fd5555555555543, 0x40238a19bb264d86, 0x4025bc970a7bede9},
      {"S7.2", 0, 16, 1, 1,
       0x3fd5555555555563, 0x4033407432e17a19, 0x403459b2da8c4a49},
      {"S7.2", 0, 32, 1, 1,
       0x3fd5555555555563, 0x4042c2e862c32779, 0x40434f87b6988f91},
      {"S7.2", 0, 8, 0.5, 1,
       0x3fd5555555555543, 0x40238a19bb264d86, 0x4025bc970a7bede9},
      {"S7.2", 0, 16, 0.5, 1,
       0x3fd5555555555563, 0x4033407432e17a19, 0x403459b2da8c4a49},
      {"S7.2", 0, 32, 0.5, 1,
       0x3fd5555555555563, 0x4042c2e862c32779, 0x40434f87b6988f91},
      {"S7.2", 0, 8, 0.25, 1,
       0x3fd5555555555543, 0x40238a19bb264d86, 0x4025bc970a7bede9},
      {"S7.2", 0, 16, 0.25, 1,
       0x3fd5555555555563, 0x4033407432e17a19, 0x403459b2da8c4a49},
      {"S7.2", 0, 32, 0.25, 1,
       0x3fd5555555555563, 0x4042c2e862c32779, 0x40434f87b6988f91},
      {"S7.2", 1, 8, 1, 1,
       0x3fe1f4008edb968c, 0x40236b38bcd4d5ca, 0x40249324954d21ac},
      {"S7.2", 1, 16, 1, 1,
       0x3fe08125b4f041dc, 0x40333b6f907ccd34, 0x4033e4ef3567a116},
      {"S7.2", 1, 32, 1, 1,
       0x3fe02684d98623ed, 0x4042c1b7cc262ae5, 0x4043193e21f41c5a},
      {"S7.2", 1, 8, 0.5, 1,
       0x3fe1f4008edb968c, 0x40236b38bcd4d5ca, 0x40249324954d21ac},
      {"S7.2", 1, 16, 0.5, 1,
       0x3fe08125b4f041dc, 0x40333b6f907ccd34, 0x4033e4ef3567a116},
      {"S7.2", 1, 32, 0.5, 1,
       0x3fe02684d98623ed, 0x4042c1b7cc262ae5, 0x4043193e21f41c5a},
      {"S7.2", 1, 8, 0.25, 1,
       0x3fe1f4008edb968c, 0x40236b38bcd4d5ca, 0x40249324954d21ac},
      {"S7.2", 1, 16, 0.25, 1,
       0x3fe136db5217ea7b, 0x40332b497b111592, 0x4033ca01907f5d8a},
      {"S7.2", 1, 32, 0.25, 1,
       0x3fe05604f238d6ba, 0x4042bf4f79e713a5, 0x4043155f7ea692b4},
      {"S5.5-poole", 0, 8, 1, 1,
       0x3fe4a3ba9f90ff4c, 0x40214cf755591a07, 0x40222d7dcf337715},
      {"S5.5-poole", 0, 16, 1, 1,
       0x3fe4fe00e750d079, 0x4031d084a76fd078, 0x40323c71a4637081},
      {"S5.5-poole", 0, 32, 1, 1,
       0x3fe52a2ab85bdc48, 0x4041e061aa5a9d31, 0x4042154bf94de2fa},
      {"S5.5-poole", 0, 8, 0.5, 1,
       0x0000000000000000, 0xfff0000000000000, 0x4000a2b23f3bab74},
      {"S5.5-poole", 0, 16, 0.5, 1,
       0x0000000000000000, 0xfff0000000000000, 0x40062e42fefa39f0},
      {"S5.5-poole", 0, 32, 0.5, 1,
       0x0000000000000000, 0xfff0000000000000, 0x400bb9d3beb8c860},
      {"S5.5-poole", 0, 8, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"S5.5-poole", 0, 16, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"S5.5-poole", 0, 32, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"S5.5-poole", 1, 8, 1, 1,
       0x3ff0000000000000, 0x40214cf755591a07, 0x40214cf755591a07},
      {"S5.5-poole", 1, 16, 1, 1,
       0x3ff0000000000000, 0x4031d084a76fd078, 0x4031d084a76fd078},
      {"S5.5-poole", 1, 32, 1, 1,
       0x3ff0000000000000, 0x4041e061aa5a9d31, 0x4041e061aa5a9d31},
      {"S5.5-poole", 1, 8, 0.5, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"S5.5-poole", 1, 16, 0.5, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"S5.5-poole", 1, 32, 0.5, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"S5.5-poole", 1, 8, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"S5.5-poole", 1, 16, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"S5.5-poole", 1, 32, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"propensities", 0, 8, 1, 1,
       0x3fe986432e8dfe50, 0xbfe41ce289f0c088, 0xbfd9c15ed8facfc0},
      {"propensities", 0, 16, 1, 1,
       0x3fe9b5ab9d776f5b, 0x3fbc0b6a59f05fc0, 0x3fd504cfcde86de8},
      {"propensities", 0, 32, 1, 1,
       0x3fe9aede6f916cb6, 0x3fec47cfc13ed390, 0x3ff1a8a1566f4e5c},
      {"propensities", 0, 8, 0.5, 1,
       0x3fea240e6c2b4483, 0xbffdfdc0869d673e, 0xbffac163cd232550},
      {"propensities", 0, 16, 0.5, 1,
       0x3fe9d1d9f76939e9, 0xbfe7d1f4412d9770, 0xbfe0f3f9f495a84c},
      {"propensities", 0, 32, 0.5, 1,
       0x3fe9bcb0b4f054f4, 0x3fc009cb0e4ced20, 0x3fd5f5638f76b9f0},
      {"propensities", 0, 8, 0.25, 1,
       0x3fe999999999999a, 0xc004d24ef844f616, 0xc003094f7bcb4c74},
      {"propensities", 0, 16, 0.25, 1,
       0x3fe9934c0a187285, 0xbff349eb823523d3, 0xbfef67f726ad7ec4},
      {"propensities", 0, 32, 0.25, 1,
       0x3fe995dcd1210101, 0xbfe0880c430ea6b8, 0xbfd2bec3fe769700},
      {"propensities", 1, 8, 1, 1,
       0x3fe869d09faf3224, 0xbff40095e4085f30, 0xbfef585d6a8dde0a},
      {"propensities", 1, 16, 1, 1,
       0x3fe88f47ee47499f, 0xbfe890553070ac7c, 0xbfe0187d2e70d10c},
      {"propensities", 1, 32, 1, 1,
       0x3fe8441d7c6ef2a3, 0x3fbbd621cff82aa0, 0x3fd8aa466d8d8070},
      {"propensities", 1, 8, 0.5, 1,
       0x3fe9e4a427157f07, 0xc00e0d0763ce1390, 0xc00c5b5917694df2},
      {"propensities", 1, 16, 0.5, 1,
       0x3fe99641232d739d, 0xc0057858b077244b, 0xc003ae4d7d7d0ed2},
      {"propensities", 1, 32, 0.5, 1,
       0x3fe8b072fa3376ca, 0xbfffd87c6f8281c6, 0xbffbb21d96731750},
      {"propensities", 1, 8, 0.25, 1,
       0x3fe999999999999a, 0xc0105b3483168749, 0xc00eed6989b364f0},
      {"propensities", 1, 16, 0.25, 1,
       0x3fe96cca354cc9be, 0xc008b74fd94f4cbc, 0xc006e0433db2b70f},
      {"propensities", 1, 32, 0.25, 1,
       0x3fe8d419efe3523e, 0xc00491c86d315888, 0xc0028a1e146b449e},
      {"fallback", 0, 8, 1, 1,
       0x3fe1e0119e0119e6, 0x402a8c4346a53432, 0x402bb668d4d96f8a},
      {"fallback", 0, 16, 1, 1,
       0x3fe0eb881f2a5936, 0x4039ffce63d678a0, 0x403aa2f057f8eff2},
      {"fallback", 0, 32, 1, 1,
       0x3fe07d48c516814b, 0x4048cd065ea0c401, 0x404921e42a43cb34},
      {"fallback", 0, 8, 0.5, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"fallback", 0, 16, 0.5, 1,
       0x3fe0eb6eac1a6dd2, 0x4039582f26ffca1f, 0x4039fb529c302a34},
      {"fallback", 0, 32, 0.5, 1,
       0x3fe07793709ab0a0, 0x4048a1b9ddab2d46, 0x4048f6c400a75d26},
      {"fallback", 0, 8, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"fallback", 0, 16, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"fallback", 0, 32, 0.25, 1,
       0x3fe07ba47542ea77, 0x40484ab7eacf80b4, 0x40489fa275c7d218},
      {"fallback", 1, 8, 1, 1,
       0x3fe1e0119e0119e6, 0x402a8c4346a53432, 0x402bb668d4d96f8a},
      {"fallback", 1, 16, 1, 1,
       0x3fe0eb881f2a5936, 0x4039ffce63d678a0, 0x403aa2f057f8eff2},
      {"fallback", 1, 32, 1, 1,
       0x3fe07d48c516814b, 0x4048cd065ea0c401, 0x404921e42a43cb34},
      {"fallback", 1, 8, 0.5, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"fallback", 1, 16, 0.5, 1,
       0x3fe0eb6d9d04327f, 0x4039582f050041a6, 0x4039fb528a364460},
      {"fallback", 1, 32, 0.5, 1,
       0x3fe07793707c8b59, 0x4048a1b9dda7bf3f, 0x4048f6c400a4d972},
      {"fallback", 1, 8, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"fallback", 1, 16, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"fallback", 1, 32, 0.25, 1,
       0x3fe07ba47377f9ba, 0x40484ab7ea704abc, 0x40489fa275768811},
      {"placements", 0, 8, 1, 1,
       0x3fd1b8aa0becd967, 0x402db79f714b658c, 0x4030248b5e17555a},
      {"placements", 0, 16, 1, 1,
       0x3fd38409a12413f2, 0x403d38e69913bc0c, 0x403e68f117927a8d},
      {"placements", 0, 32, 1, 1,
       0x3fd402ad788ed0ac, 0x404b33812aa06959, 0x404bc85228f29f9a},
      {"placements", 0, 8, 0.5, 1,
       0x3fd20be4ee289ac4, 0x402d5a5ae14572fa, 0x402fe2834e85734a},
      {"placements", 0, 16, 0.5, 1,
       0x3fd30c40d694e439, 0x403c2f126d66979d, 0x403d655358d613bd},
      {"placements", 0, 32, 0.5, 1,
       0x3fd406950a20419c, 0x404ad77a5f9c17ee, 0x404b6c326678950b},
      {"placements", 0, 8, 0.25, 1,
       0x3fd20be4ee289ac4, 0x402d5a5ae14572fa, 0x402fe2834e85734a},
      {"placements", 0, 16, 0.25, 1,
       0x3fd385150b157831, 0x403bf9c590a3df68, 0x403d29c25bace2ad},
      {"placements", 0, 32, 0.25, 1,
       0x3fd3e795abb60877, 0x404a539bd4d5c452, 0x404ae91a96cff7bd},
      {"placements", 1, 8, 1, 1,
       0x3fd2f5b97cc39178, 0x402cfb7a10109375, 0x402f6a5ade8ccf26},
      {"placements", 1, 16, 1, 1,
       0x3fd428e8fd2f440e, 0x403cfc553c8fffbe, 0x403e240feb6874da},
      {"placements", 1, 32, 1, 1,
       0x3fd46c0619d22c1f, 0x404b166e4bac9c47, 0x404ba8a442d3fc61},
      {"placements", 1, 8, 0.5, 1,
       0x3fd388e6a2e50f9b, 0x402ca70d25aaa8c0, 0x402f06a29b8d4775},
      {"placements", 1, 16, 0.5, 1,
       0x3fd3a31f8789cc21, 0x403bec2765b70a6e, 0x403d1a9b631c9dca},
      {"placements", 1, 32, 0.5, 1,
       0x3fd477d9078e7fe0, 0x404abb2b14fb4891, 0x404b4d17057e779d},
      {"placements", 1, 8, 0.25, 1,
       0x3fd388e6a2e50f9b, 0x402ca70d25aaa8c0, 0x402f06a29b8d4775},
      {"placements", 1, 16, 0.25, 1,
       0x3fd4280c662a9c3b, 0x403bbc952363366e, 0x403ce45ac3a2c465},
      {"placements", 1, 32, 0.25, 1,
       0x3fd462b5008b1a41, 0x404a36180016bb96, 0x404ac88869ce53ba},
      {"count-dependent", 0, 8, 1, 1,
       0x3fd950a8542a14fb, 0x402b1fcd66c388ee, 0x402cfaac7d27d240},
      {"count-dependent", 0, 16, 1, 1,
       0x3fdd59a67179b256, 0x403a8c4680383e54, 0x403b53d94f07807f},
      {"count-dependent", 0, 32, 1, 1,
       0x3fdeda5f3501bc66, 0x40491c92223e79f9, 0x404979f74251698f},
      {"count-dependent", 0, 8, 0.5, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"count-dependent", 0, 16, 0.5, 1,
       0x3fdc76c665d0386b, 0x4039debe85bbe3d6, 0x403aae2aaf80775f},
      {"count-dependent", 0, 32, 0.5, 1,
       0x3fde5a6ce648ab03, 0x4048ecba8790ea42, 0x40494c36d0334e9e},
      {"count-dependent", 0, 8, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"count-dependent", 0, 16, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"count-dependent", 0, 32, 0.25, 1,
       0x3fdddbc8d011ee45, 0x40489255cdc57a00, 0x4048f3ec88bca79c},
      {"count-dependent", 1, 8, 1, 1,
       0x3fe16f1826a439f9, 0x402b1fcd66c388ee, 0x402c56bf7d9f4976},
      {"count-dependent", 1, 16, 1, 1,
       0x3fe3b587705c717b, 0x403a8c4680383e54, 0x403b0858e31a8f16},
      {"count-dependent", 1, 32, 1, 1,
       0x3fe499eaa5f226f4, 0x40491c92223e79f9, 0x404954f0a9a86c40},
      {"count-dependent", 1, 8, 0.5, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"count-dependent", 1, 16, 0.5, 1,
       0x3fe34e32e39fe78c, 0x4039debe85bbe3d6, 0x403a601cfde2cd14},
      {"count-dependent", 1, 32, 0.5, 1,
       0x3fe4609005c38b52, 0x4048ecba8790ea42, 0x4049267f5d05e849},
      {"count-dependent", 1, 8, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"count-dependent", 1, 16, 0.25, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"count-dependent", 1, 32, 0.25, 1,
       0x3fe4272de17cc83d, 0x40489255cdc57a00, 0x4048cd8517183608},
  };
  return *points;
}

struct GoldenInstance {
  KnowledgeBase kb;
  FormulaPtr query;
  ProfileEngine engine;
};

GoldenInstance MakeInstance(const GoldenCase& c, bool appended) {
  GoldenInstance instance;
  std::string error;
  EXPECT_TRUE(instance.kb.AddParsed(c.kb, &error)) << c.id << ": " << error;
  if (appended) {
    EXPECT_TRUE(instance.kb.AddParsed(c.appended, &error))
        << c.id << ": " << error;
  }
  for (const auto& name : c.extra_constants) {
    instance.kb.mutable_vocabulary().AddConstant(name);
  }
  instance.query = logic::ParseFormula(c.query).formula;
  instance.kb.RegisterQuerySymbols(instance.query);
  ProfileEngine::Options options;
  options.prior = c.prior;
  instance.engine = ProfileEngine(options);
  return instance;
}

// The golden points of one case, in recording order.
std::vector<GoldenPoint> PointsOf(const GoldenCase& c, bool appended) {
  std::vector<GoldenPoint> out;
  for (const auto& point : GoldenPoints()) {
    if (point.id == std::string(c.id) && point.appended == appended) {
      out.push_back(point);
    }
  }
  EXPECT_EQ(out.size(), 9u) << c.id;
  return out;
}

semantics::ToleranceVector TolAt(const GoldenCase& c,
                                 const GoldenPoint& point) {
  return Tol(c.tolerance).Scaled(point.scale);
}

void ExpectGolden(const FiniteResult& r, const GoldenPoint& point,
                  const std::string& path) {
  SCOPED_TRACE(path + " " + point.id + (point.appended ? "+appended" : "") +
               " N=" + std::to_string(point.n) +
               " scale=" + std::to_string(point.scale));
  EXPECT_FALSE(r.exhausted);
  EXPECT_EQ(r.well_defined, point.well_defined != 0);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.probability), point.probability);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.log_numerator), point.log_numerator);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.log_denominator),
            point.log_denominator);
}

TEST(ProfileEngineGolden, UncachedDegreeAt) {
  for (const auto& c : GoldenCases()) {
    for (bool appended : {false, true}) {
      GoldenInstance in = MakeInstance(c, appended);
      QueryContext ctx(in.kb.vocabulary(), in.kb.AsFormula(),
                       /*caching_enabled=*/false);
      for (const auto& point : PointsOf(c, appended)) {
        ExpectGolden(in.engine.DegreeAt(ctx, in.query, point.n,
                                        TolAt(c, point)),
                     point, "uncached");
      }
    }
  }
}

TEST(ProfileEngineGolden, RecordingAndReplayingCalls) {
  for (const auto& c : GoldenCases()) {
    GoldenInstance in = MakeInstance(c, false);
    // Eager recording: the first computation at a point records its list.
    QueryContext recording(in.kb.vocabulary(), in.kb.AsFormula(), true);
    recording.set_eager_world_recording(true);
    QueryContext replaying(in.kb.vocabulary(), in.kb.AsFormula(), true);
    replaying.set_eager_world_recording(true);
    const FormulaPtr other = Formula::Not(in.query);
    for (const auto& point : PointsOf(c, false)) {
      semantics::ToleranceVector tol = TolAt(c, point);
      ExpectGolden(in.engine.DegreeAt(recording, in.query, point.n, tol),
                   point, "recording");
      in.engine.DegreeAt(replaying, other, point.n, tol);
      const uint64_t hits = replaying.cache_stats().blob_hits;
      ExpectGolden(in.engine.DegreeAt(replaying, in.query, point.n, tol),
                   point, "replaying");
      EXPECT_GT(replaying.cache_stats().blob_hits, hits)
          << c.id << ": the second query should replay the recorded list";
    }
  }
}

TEST(ProfileEngineGolden, PatchedAfterAppend) {
  for (const auto& c : GoldenCases()) {
    GoldenInstance base = MakeInstance(c, false);
    GoldenInstance grown = MakeInstance(c, true);
    QueryContext v1(base.kb.vocabulary(), base.kb.AsFormula(), true);
    v1.set_eager_world_recording(true);
    for (const auto& point : PointsOf(c, false)) {
      base.engine.DegreeAt(v1, base.query, point.n, TolAt(c, point));
    }
    KbDelta delta = ComputeKbDelta(base.kb, grown.kb);
    ASSERT_TRUE(delta.patchable()) << c.id;
    QueryContext v2(grown.kb.vocabulary(), grown.kb.AsFormula(), true);
    v2.set_eager_world_recording(true);
    v2.AdoptCachesFrom(v1);
    ASSERT_TRUE(v2.ApplyDelta(v1, delta)) << c.id;
    EXPECT_EQ(v2.cache_stats().world_lists_patched, 9u) << c.id;
    for (const auto& point : PointsOf(c, true)) {
      semantics::ToleranceVector tol = TolAt(c, point);
      QueryContext ctx(grown.kb.vocabulary(), grown.kb.AsFormula(),
                       /*caching_enabled=*/false);
      FiniteResult fresh =
          grown.engine.DegreeAt(ctx, grown.query, point.n, tol);
      ExpectGolden(fresh, point, "fresh sweep of the appended KB");
      ExpectGolden(grown.engine.DegreeAt(v2, grown.query, point.n, tol),
                   point, "patched");
    }
  }
}

// ---- Columns: every scale of one N from one DFS ----
//
// The rows below were recorded with the per-point sweep (one DFS per
// (N, τ) point) that the column kernel replaced.  Each case computes the
// column over `scales` at each N; every path (uncached, recording,
// replaying and patched) must reproduce the per-point rows bit for bit,
// and EstimateLimit must reproduce the per-point sweep's series and answer.

struct ColumnCase {
  const char* id;
  const char* kb;
  const char* query;
  double tolerance;
  std::vector<int> sizes;
  std::vector<double> scales;
  uint64_t max_leaves;
  // Asserted by the patch check (nullptr: no patch check).
  const char* appended;
};

const std::vector<ColumnCase>& ColumnCases() {
  static const auto* cases = new std::vector<ColumnCase>{
      // A negated ≈ conjunct: a narrower τ admits leaves that a wider τ
      // rejects.
      {"negated",
       "!(#(A(x))[x] ~= 0.5)\n"
       "#(B(x) ; A(x))[x] <~ 0.6\n"
       "A(K)\n",
       "B(K)", 0.1, {8, 16, 32}, {1.0, 0.5, 0.25}, 2'000'000,
       "#(A(x))[x] <~ 0.7\n"
       "B(K) | #(B(x))[x] ~= 0.4\n"},
      // A τ-dependent constant-dependent conjunct and a τ-dependent query:
      // the entries of one leaf enter different scales.
      {"mixed-masks",
       "#(A(x))[x] ~= 0.5\n"
       "A(K) | #(B(x) ; A(x))[x] ~= 0.3\n",
       "B(K) | #(B(x))[x] <~ 0.3", 0.1, {8, 16, 32}, {1.0, 0.5, 0.25},
       2'000'000,
       "#(B(x))[x] >~ 0.2\n"
       "!B(K) | #(A(x) ; B(x))[x] <~ 0.6\n"},
      // A leaf budget at which only some points exhaust: at N = 16 the
      // widest scale does (367 leaves), the others do not (143 and 45).
      {"exhaust",
       "#(A(x))[x] ~= 0.5\n"
       "#(B(x) ; A(x))[x] <~ 0.5\n"
       "A(K)\n",
       "B(K)", 0.2, {8, 16, 32}, {1.0, 0.5, 0.25}, 300, nullptr},
      // The same budget with the widest scale in the middle of the
      // schedule: at N = 16 scale 1 exhausts and scale 0 does not, so the
      // N = 32 column computes scale 0 alone.
      {"exhaust-middle",
       "#(A(x))[x] ~= 0.5\n"
       "#(B(x) ; A(x))[x] <~ 0.5\n"
       "A(K)\n",
       "B(K)", 0.2, {8, 16, 32}, {0.1, 1.0, 0.5}, 300, nullptr},
      // A schedule longer than a column's scale mask: split into columns.
      {"long",
       "#(A(x))[x] ~= 0.5\n"
       "A(K) | #(B(x) ; A(x))[x] ~= 0.3\n"
       "!(#(B(x))[x] ~= 0.5)\n",
       "B(K) | #(B(x))[x] <~ 0.3", 0.1, {8, 12},
       {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15,
        0.12, 0.1},
       2'000'000,
       "#(B(x))[x] >~ 0.2\n"
       "!B(K) | #(A(x) ; B(x))[x] <~ 0.6\n"},
  };
  return *cases;
}

struct ColumnPoint {
  const char* id;
  int appended;
  int n;
  int scale_index;
  int exhausted;
  int well_defined;
  uint64_t probability;
  uint64_t log_numerator;
  uint64_t log_denominator;
};

const std::vector<ColumnPoint>& ColumnPoints() {
  static const auto* points = new std::vector<ColumnPoint>{
      {"negated", 0, 8, 0, 0, 1,
       0x3fdb2202a827ee22, 0x40263c034bd64af8, 0x4027f361224e8bb3},
      {"negated", 0, 8, 1, 0, 1,
       0x3fd80ff0ec8585b4, 0x4025a22ae9dcdeac, 0x40279706875f8b03},
      {"negated", 0, 8, 2, 0, 1,
       0x3fd8021b9e9a6715, 0x40259f4898bbc0ce, 0x4027954ae34c43e2},
      {"negated", 0, 16, 0, 0, 1,
       0x3fddc6578bc7cb7b, 0x403699ddebba8159, 0x40375dc37b785dfa},
      {"negated", 0, 16, 1, 0, 1,
       0x3fdbad0d75384b23, 0x4036f46c6481088e, 0x4037cb0865ed16f4},
      {"negated", 0, 16, 2, 0, 1,
       0x3fdb5a2ac0e3d2a5, 0x4036eb24842149b7, 0x4037c4c3b972ad53},
      {"negated", 0, 32, 0, 0, 1,
       0x3fdf2a33707aa7dd, 0x40466a58c1ed25b0, 0x4046c6745bbb2112},
      {"negated", 0, 32, 1, 0, 1,
       0x3fde41a9ba697fa5, 0x4046dfa65c9256a2, 0x40473f8b3c459479},
      {"negated", 0, 32, 2, 0, 1,
       0x3fddb1587531d49a, 0x4047057204c2fb81, 0x404767bf2fb468cd},
      {"negated", 1, 8, 0, 0, 1,
       0x3fe2204fdc45e0c6, 0x40261068741dd202, 0x4027336ab1d1b118},
      {"negated", 1, 8, 1, 0, 1,
       0x3fe53729043e3b64, 0x4024d83542b524b3, 0x4025aaa48bb62f64},
      {"negated", 1, 8, 2, 0, 1,
       0x3ff0000000000000, 0x4024d83542b524b3, 0x4024d83542b524b3},
      {"negated", 1, 16, 0, 0, 1,
       0x3fe233985981447d, 0x40368ece7e2149f0, 0x40371f3fd679bffc},
      {"negated", 1, 16, 1, 0, 1,
       0x3fe53102649cdd77, 0x4036de748e9b20a2, 0x403747f676553694},
      {"negated", 1, 16, 2, 0, 1,
       0x3ff0000000000000, 0x4036d4991dc330df, 0x4036d4991dc330df},
      {"negated", 1, 32, 0, 0, 1,
       0x3fe3252f08142076, 0x40466a127f3c1637, 0x4046abd2ce7199ae},
      {"negated", 1, 32, 1, 0, 1,
       0x3fe7e3566d1bf8ab, 0x4046de69628237bf, 0x404703d55fefb26d},
      {"negated", 1, 32, 2, 0, 1,
       0x3fec822ef6c2b5dd, 0x4047049d010718ee, 0x40471366c6a9cbd9},
      {"mixed-masks", 0, 8, 0, 0, 1,
       0x3fe933333333332f, 0x4026541478e3bb1a, 0x4026ce64832e6f2f},
      {"mixed-masks", 0, 8, 1, 0, 1,
       0x3fe4800000000003, 0x4025ea64b4f44489, 0x4026ce64832e6f2f},
      {"mixed-masks", 0, 8, 2, 0, 1,
       0x3fe3a00000000004, 0x402561cf649febfd, 0x40265c24a41004c6},
      {"mixed-masks", 0, 16, 0, 0, 1,
       0x3fe5e7e0965e5dd8, 0x40377e1407b850a1, 0x4037df193e55c159},
      {"mixed-masks", 0, 16, 1, 0, 1,
       0x3fe2f6fc64f52ee5, 0x4036368d6fdf1d71, 0x4036bc7ab7c140b4},
      {"mixed-masks", 0, 16, 2, 0, 1,
       0x3fe26a0000000001, 0x4036146fb437eff6, 0x4036a1e84a86f5df},
      {"mixed-masks", 0, 32, 0, 0, 1,
       0x3fe307f604bce839, 0x404746f99569dbe5, 0x4047897dda5f4d2a},
      {"mixed-masks", 0, 32, 1, 0, 1,
       0x3fe18ac7aae86b28, 0x4046db7015f93e1a, 0x40472861f7ef5fd2},
      {"mixed-masks", 0, 32, 2, 0, 1,
       0x3fe0ae78088e08a4, 0x40464a51f8aaf8c0, 0x40469db42cd07636},
      {"mixed-masks", 1, 8, 0, 0, 1,
       0x3fe89facb107cf60, 0x40261e963109f0a4, 0x4026a4be60742e32},
      {"mixed-masks", 1, 8, 1, 0, 1,
       0x3fe22a588a9622a1, 0x40254ddc0baee7f8, 0x40266fc32bca0384},
      {"mixed-masks", 1, 8, 2, 0, 1,
       0x3fe09f1165e72541, 0x40249d8029f28b7c, 0x4025ece2872f1564},
      {"mixed-masks", 1, 16, 0, 0, 1,
       0x3fe571c241d3ab8b, 0x40376d2fbe7463ad, 0x4037d3a81588f67f},
      {"mixed-masks", 1, 16, 1, 0, 1,
       0x3fe1d5f76fecb771, 0x403611937d5692ea, 0x4036a7371b43b2c2},
      {"mixed-masks", 1, 16, 2, 0, 1,
       0x3fe07959cda7880f, 0x4035d5c3eb59ac0b, 0x40367fbc9b33a0ea},
      {"mixed-masks", 1, 32, 0, 0, 1,
       0x3fe2cd07800ccaf6, 0x4047432a4306280a, 0x4047873d501567fa},
      {"mixed-masks", 1, 32, 1, 0, 1,
       0x3fe11331aa84cc48, 0x4046d3e9af6d5f6c, 0x4047244ffb8e1076},
      {"mixed-masks", 1, 32, 2, 0, 1,
       0x3fdf99fa835bb79d, 0x40463c3890c6aad8, 0x4046968c42aece5d},
      {"exhaust", 0, 8, 0, 0, 1,
       0x3fd9e06522c3f35c, 0x4025f5c152758536, 0x4027c5651299e9c8},
      {"exhaust", 0, 8, 1, 0, 1,
       0x3fd745d1745d173b, 0x4023965c4430bd88, 0x40259c4cd231441e},
      {"exhaust", 0, 8, 2, 0, 1,
       0x3fd745d1745d173b, 0x4023965c4430bd88, 0x40259c4cd231441e},
      {"exhaust", 0, 16, 0, 1, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"exhaust", 0, 16, 1, 0, 1,
       0x3fda8fca3f28fca2, 0x40367037214ebb9e, 0x403751585fd01693},
      {"exhaust", 0, 16, 2, 0, 1,
       0x3fd920fb49d0e226, 0x40353f041a975240, 0x40362e578e26dcc2},
      {"exhaust", 0, 32, 0, 1, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"exhaust", 0, 32, 1, 1, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"exhaust", 0, 32, 2, 1, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"exhaust-middle", 0, 8, 0, 0, 1,
       0x3fd745d1745d173b, 0x4023965c4430bd88, 0x40259c4cd231441e},
      {"exhaust-middle", 0, 8, 1, 0, 1,
       0x3fd9e06522c3f35c, 0x4025f5c152758536, 0x4027c5651299e9c8},
      {"exhaust-middle", 0, 8, 2, 0, 1,
       0x3fd745d1745d173b, 0x4023965c4430bd88, 0x40259c4cd231441e},
      {"exhaust-middle", 0, 16, 0, 0, 1,
       0x3fd920fb49d0e226, 0x40353f041a975240, 0x40362e578e26dcc2},
      {"exhaust-middle", 0, 16, 1, 1, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"exhaust-middle", 0, 16, 2, 0, 1,
       0x3fda8fca3f28fca2, 0x40367037214ebb9e, 0x403751585fd01693},
      {"exhaust-middle", 0, 32, 0, 0, 1,
       0x3fdabf51b96f83ae, 0x4045e3ffc87e154a, 0x404653ac28fad6c7},
      {"exhaust-middle", 0, 32, 1, 1, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"exhaust-middle", 0, 32, 2, 1, 0,
       0x0000000000000000, 0x0000000000000000, 0x0000000000000000},
      {"long", 0, 8, 0, 0, 1,
       0x3fec08c08c08c07e, 0x4025ea64b4f44488, 0x40262e22fdfa2f45},
      {"long", 0, 8, 1, 0, 1,
       0x3fec08c08c08c07e, 0x4025ea64b4f44488, 0x40262e22fdfa2f45},
      {"long", 0, 8, 2, 0, 1,
       0x3fec08c08c08c07e, 0x4025ea64b4f44488, 0x40262e22fdfa2f45},
      {"long", 0, 8, 3, 0, 1,
       0x3fe59b59b59b59af, 0x4025650f995a6427, 0x40262e22fdfa2f45},
      {"long", 0, 8, 4, 0, 1,
       0x3fe59b59b59b59af, 0x4025650f995a6427, 0x40262e22fdfa2f45},
      {"long", 0, 8, 5, 0, 1,
       0x3fe59b59b59b59af, 0x4025650f995a6427, 0x40262e22fdfa2f45},
      {"long", 0, 8, 6, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 8, 7, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 8, 8, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 8, 9, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 8, 10, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 8, 11, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 8, 12, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 8, 13, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 8, 14, 0, 1,
       0x3fe4fd3f4fd3f4f7, 0x4024e0abca0bc174, 0x4025b89835fc76a6},
      {"long", 0, 12, 0, 0, 1,
       0x3fec23d014d9496d, 0x40310d5f084ff87b, 0x40312e4787929c71},
      {"long", 0, 12, 1, 0, 1,
       0x3febe234e86660fa, 0x4030fa92d4e518d0, 0x40311dd2e8a66bd4},
      {"long", 0, 12, 2, 0, 1,
       0x3fe642f705f66ef3, 0x4030873313eb94a5, 0x4030e4185b0424a2},
      {"long", 0, 12, 3, 0, 1,
       0x3fe642f705f66ef3, 0x4030873313eb94a5, 0x4030e4185b0424a2},
      {"long", 0, 12, 4, 0, 1,
       0x3fe642f705f66ef3, 0x4030873313eb94a5, 0x4030e4185b0424a2},
      {"long", 0, 12, 5, 0, 1,
       0x3fe642f705f66ef3, 0x4030873313eb94a5, 0x4030e4185b0424a2},
      {"long", 0, 12, 6, 0, 1,
       0x3fe642f705f66ef3, 0x4030873313eb94a5, 0x4030e4185b0424a2},
      {"long", 0, 12, 7, 0, 1,
       0x3fe642f705f66ef3, 0x4030873313eb94a5, 0x4030e4185b0424a2},
      {"long", 0, 12, 8, 0, 1,
       0x3fe642f705f66ef3, 0x4030873313eb94a5, 0x4030e4185b0424a2},
      {"long", 0, 12, 9, 0, 1,
       0x3fe25729a4f6a35f, 0x4030203f2a24831d, 0x4030aebe292a928c},
      {"long", 0, 12, 10, 0, 1,
       0x3fe25729a4f6a35f, 0x4030203f2a24831d, 0x4030aebe292a928c},
      {"long", 0, 12, 11, 0, 1,
       0x3fe25729a4f6a35f, 0x4030203f2a24831d, 0x4030aebe292a928c},
      {"long", 0, 12, 12, 0, 1,
       0x3fe25729a4f6a35f, 0x4030203f2a24831d, 0x4030aebe292a928c},
      {"long", 0, 12, 13, 0, 1,
       0x3fe25729a4f6a35f, 0x4030203f2a24831d, 0x4030aebe292a928c},
      {"long", 0, 12, 14, 0, 1,
       0x3fe25729a4f6a35f, 0x4030203f2a24831d, 0x4030aebe292a928c},
      {"long", 1, 8, 0, 0, 1,
       0x3febd1dfb632bd26, 0x4025cb8278a78f00, 0x4026132edf66ddbe},
      {"long", 1, 8, 1, 0, 1,
       0x3febd1dfb632bd26, 0x4025cb8278a78f00, 0x4026132edf66ddbe},
      {"long", 1, 8, 2, 0, 1,
       0x3febd1dfb632bd26, 0x4025cb8278a78f00, 0x4026132edf66ddbe},
      {"long", 1, 8, 3, 0, 1,
       0x3fe47953b7342bae, 0x4025148351917a99, 0x4025f929e46320cc},
      {"long", 1, 8, 4, 0, 1,
       0x3fe366227caf168d, 0x4024cb3ece0a8ba6, 0x4025cb8278a78f00},
      {"long", 1, 8, 5, 0, 1,
       0x3fe366227caf168d, 0x4024cb3ece0a8ba6, 0x4025cb8278a78f00},
      {"long", 1, 8, 6, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 8, 7, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 8, 8, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 8, 9, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 8, 10, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 8, 11, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 8, 12, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 8, 13, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 8, 14, 0, 1,
       0x3fe24149e112e640, 0x402427a6540f3954, 0x4025470864a0db65},
      {"long", 1, 12, 0, 0, 1,
       0x3febd825d4b94362, 0x4030f7c7d06a5ebe, 0x40311b644eab65b8},
      {"long", 1, 12, 1, 0, 1,
       0x3feb8a75c01d85cb, 0x4030e2ee8a601c95, 0x4031095936d42fe1},
      {"long", 1, 12, 2, 0, 1,
       0x3fe591f7047dc113, 0x40306d903376a4f7, 0x4030d289314a73d3},
      {"long", 1, 12, 3, 0, 1,
       0x3fe591f7047dc113, 0x40306d903376a4f7, 0x4030d289314a73d3},
      {"long", 1, 12, 4, 0, 1,
       0x3fe56186f75acfa3, 0x403066b48c01509c, 0x4030cdeef1dddf0c},
      {"long", 1, 12, 5, 0, 1,
       0x3fe56186f75acfa3, 0x403066b48c01509c, 0x4030cdeef1dddf0c},
      {"long", 1, 12, 6, 0, 1,
       0x3fe56186f75acfa3, 0x403066b48c01509c, 0x4030cdeef1dddf0c},
      {"long", 1, 12, 7, 0, 1,
       0x3fe56186f75acfa3, 0x403066b48c01509c, 0x4030cdeef1dddf0c},
      {"long", 1, 12, 8, 0, 1,
       0x3fe56186f75acfa3, 0x403066b48c01509c, 0x4030cdeef1dddf0c},
      {"long", 1, 12, 9, 0, 1,
       0x3fe08969115be960, 0x402fcbfc69127732, 0x40308efdce42e728},
      {"long", 1, 12, 10, 0, 1,
       0x3fdfedcf1c9ce5b7, 0x402fa758baeb4a11, 0x403085b025f56d6d},
      {"long", 1, 12, 11, 0, 1,
       0x3fdfedcf1c9ce5b7, 0x402fa758baeb4a11, 0x403085b025f56d6d},
      {"long", 1, 12, 12, 0, 1,
       0x3fdfedcf1c9ce5b7, 0x402fa758baeb4a11, 0x403085b025f56d6d},
      {"long", 1, 12, 13, 0, 1,
       0x3fdfedcf1c9ce5b7, 0x402fa758baeb4a11, 0x403085b025f56d6d},
      {"long", 1, 12, 14, 0, 1,
       0x3fdfedcf1c9ce5b7, 0x402fa758baeb4a11, 0x403085b025f56d6d},
  };
  return *points;
}

struct ColumnSeriesPoint {
  int n;
  double scale;
  int well_defined;
  uint64_t probability;
};

struct ColumnLimit {
  const char* id;
  int has_value;
  uint64_t value;
  int converged;
  int exhausted;
  int never_defined;
  std::vector<ColumnSeriesPoint> series;
};

const std::vector<ColumnLimit>& ColumnLimits() {
  static const auto* limits = new std::vector<ColumnLimit>{
      {"negated", 1, 0x3fddb1587531d49a, 0, 0, 0,
       {{8, 1, 1, 0x3fdb2202a827ee22},
        {16, 1, 1, 0x3fddc6578bc7cb7b},
        {32, 1, 1, 0x3fdf2a33707aa7dd},
        {8, 0.5, 1, 0x3fd80ff0ec8585b4},
        {16, 0.5, 1, 0x3fdbad0d75384b23},
        {32, 0.5, 1, 0x3fde41a9ba697fa5},
        {8, 0.25, 1, 0x3fd8021b9e9a6715},
        {16, 0.25, 1, 0x3fdb5a2ac0e3d2a5},
        {32, 0.25, 1, 0x3fddb1587531d49a}}},
      {"mixed-masks", 1, 0x3fe0ae78088e08a4, 0, 0, 0,
       {{8, 1, 1, 0x3fe933333333332f},
        {16, 1, 1, 0x3fe5e7e0965e5dd8},
        {32, 1, 1, 0x3fe307f604bce839},
        {8, 0.5, 1, 0x3fe4800000000003},
        {16, 0.5, 1, 0x3fe2f6fc64f52ee5},
        {32, 0.5, 1, 0x3fe18ac7aae86b28},
        {8, 0.25, 1, 0x3fe3a00000000004},
        {16, 0.25, 1, 0x3fe26a0000000001},
        {32, 0.25, 1, 0x3fe0ae78088e08a4}}},
      {"exhaust", 1, 0x3fd9e06522c3f35c, 0, 1, 0,
       {{8, 1, 1, 0x3fd9e06522c3f35c}}},
      {"exhaust-middle", 1, 0x3fd9e06522c3f35c, 0, 1, 0,
       {{8, 0.1, 1, 0x3fd745d1745d173b},
        {16, 0.1, 1, 0x3fd920fb49d0e226},
        {32, 0.1, 1, 0x3fdabf51b96f83ae},
        {8, 1, 1, 0x3fd9e06522c3f35c}}},
      {"long", 1, 0x3fe25729a4f6a35f, 0, 0, 0,
       {{8, 1, 1, 0x3fec08c08c08c07e},
        {12, 1, 1, 0x3fec23d014d9496d},
        {8, 0.9, 1, 0x3fec08c08c08c07e},
        {12, 0.9, 1, 0x3febe234e86660fa},
        {8, 0.8, 1, 0x3fec08c08c08c07e},
        {12, 0.8, 1, 0x3fe642f705f66ef3},
        {8, 0.7, 1, 0x3fe59b59b59b59af},
        {12, 0.7, 1, 0x3fe642f705f66ef3},
        {8, 0.6, 1, 0x3fe59b59b59b59af},
        {12, 0.6, 1, 0x3fe642f705f66ef3},
        {8, 0.5, 1, 0x3fe59b59b59b59af},
        {12, 0.5, 1, 0x3fe642f705f66ef3},
        {8, 0.45, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.45, 1, 0x3fe642f705f66ef3},
        {8, 0.4, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.4, 1, 0x3fe642f705f66ef3},
        {8, 0.35, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.35, 1, 0x3fe642f705f66ef3},
        {8, 0.3, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.3, 1, 0x3fe25729a4f6a35f},
        {8, 0.25, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.25, 1, 0x3fe25729a4f6a35f},
        {8, 0.2, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.2, 1, 0x3fe25729a4f6a35f},
        {8, 0.15, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.15, 1, 0x3fe25729a4f6a35f},
        {8, 0.12, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.12, 1, 0x3fe25729a4f6a35f},
        {8, 0.1, 1, 0x3fe4fd3f4fd3f4f7},
        {12, 0.1, 1, 0x3fe25729a4f6a35f}}},
  };
  return *limits;
}

struct ColumnInstance {
  KnowledgeBase kb;
  FormulaPtr query;
  ProfileEngine engine;
  std::vector<semantics::ToleranceVector> scales;
};

ColumnInstance MakeColumnInstance(const ColumnCase& c, bool appended) {
  ColumnInstance instance;
  std::string error;
  EXPECT_TRUE(instance.kb.AddParsed(c.kb, &error)) << c.id << ": " << error;
  if (appended) {
    EXPECT_TRUE(instance.kb.AddParsed(c.appended, &error))
        << c.id << ": " << error;
  }
  instance.query = logic::ParseFormula(c.query).formula;
  instance.kb.RegisterQuerySymbols(instance.query);
  ProfileEngine::Options options;
  options.max_leaves = c.max_leaves;
  instance.engine = ProfileEngine(options);
  for (double scale : c.scales) {
    instance.scales.push_back(Tol(c.tolerance).Scaled(scale));
  }
  return instance;
}

// The per-point rows of one case at one N, in scale order.
std::vector<ColumnPoint> ColumnPointsAt(const ColumnCase& c, bool appended,
                                        int n) {
  std::vector<ColumnPoint> out;
  for (const auto& point : ColumnPoints()) {
    if (point.id == std::string(c.id) && point.appended == appended &&
        point.n == n) {
      out.push_back(point);
    }
  }
  EXPECT_EQ(out.size(), c.scales.size()) << c.id << " N=" << n;
  return out;
}

void ExpectPoint(const FiniteResult& r, const ColumnPoint& point,
                 const std::string& path) {
  SCOPED_TRACE(path + " " + point.id + (point.appended ? "+appended" : "") +
               " N=" + std::to_string(point.n) +
               " scale #" + std::to_string(point.scale_index));
  EXPECT_EQ(r.exhausted, point.exhausted != 0);
  EXPECT_EQ(r.well_defined, point.well_defined != 0);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.probability), point.probability);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.log_numerator), point.log_numerator);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.log_denominator),
            point.log_denominator);
}

// A column holds one result per scale up to and including the first
// exhausted one, each equal to its per-point row.
void ExpectColumn(const std::vector<FiniteResult>& column,
                  const ColumnCase& c, bool appended, int n,
                  const std::string& path) {
  const std::vector<ColumnPoint> points = ColumnPointsAt(c, appended, n);
  size_t expected = points.size();
  for (size_t s = 0; s < points.size(); ++s) {
    if (points[s].exhausted) {
      expected = s + 1;
      break;
    }
  }
  ASSERT_EQ(column.size(), expected) << path << " " << c.id << " N=" << n;
  for (size_t s = 0; s < column.size(); ++s) {
    ExpectPoint(column[s], points[s], path);
  }
}

bool ColumnExhausted(const ColumnCase& c, int n) {
  for (const auto& point : ColumnPointsAt(c, false, n)) {
    if (point.exhausted) return true;
  }
  return false;
}

TEST(ProfileEngineColumn, UncachedColumnMatchesPerPointRows) {
  for (const auto& c : ColumnCases()) {
    for (bool appended : {false, true}) {
      if (appended && c.appended == nullptr) continue;
      ColumnInstance in = MakeColumnInstance(c, appended);
      QueryContext ctx(in.kb.vocabulary(), in.kb.AsFormula(),
                       /*caching_enabled=*/false);
      for (int n : c.sizes) {
        ExpectColumn(in.engine.DegreesAt(ctx, in.query, n, in.scales), c,
                     appended, n, "uncached column");
        // A single point is the one-scale column of the same kernel.
        const std::vector<ColumnPoint> points = ColumnPointsAt(c, appended, n);
        for (size_t s = 0; s < in.scales.size(); ++s) {
          ExpectPoint(in.engine.DegreeAt(ctx, in.query, n, in.scales[s]),
                      points[s], "uncached point");
        }
      }
    }
  }
}

TEST(ProfileEngineColumn, RecordingAndReplayingColumns) {
  for (const auto& c : ColumnCases()) {
    ColumnInstance in = MakeColumnInstance(c, false);
    QueryContext recording(in.kb.vocabulary(), in.kb.AsFormula(), true);
    recording.set_eager_world_recording(true);
    QueryContext replaying(in.kb.vocabulary(), in.kb.AsFormula(), true);
    replaying.set_eager_world_recording(true);
    const FormulaPtr other = Formula::Not(in.query);
    for (int n : c.sizes) {
      ExpectColumn(in.engine.DegreesAt(recording, in.query, n, in.scales), c,
                   false, n, "recording");
      in.engine.DegreesAt(replaying, other, n, in.scales);
      const uint64_t hits = replaying.cache_stats().blob_hits;
      ExpectColumn(in.engine.DegreesAt(replaying, in.query, n, in.scales), c,
                   false, n, "replaying");
      if (!ColumnExhausted(c, n)) {
        EXPECT_GT(replaying.cache_stats().blob_hits, hits)
            << c.id << ": the second query should replay the recorded list";
      }
    }
  }
}

TEST(ProfileEngineColumn, PatchedColumnsAfterAppend) {
  for (const auto& c : ColumnCases()) {
    if (c.appended == nullptr) continue;
    ColumnInstance base = MakeColumnInstance(c, false);
    ColumnInstance grown = MakeColumnInstance(c, true);
    QueryContext v1(base.kb.vocabulary(), base.kb.AsFormula(), true);
    v1.set_eager_world_recording(true);
    for (int n : c.sizes) {
      base.engine.DegreesAt(v1, base.query, n, base.scales);
    }
    KbDelta delta = ComputeKbDelta(base.kb, grown.kb);
    ASSERT_TRUE(delta.patchable()) << c.id;
    QueryContext v2(grown.kb.vocabulary(), grown.kb.AsFormula(), true);
    v2.set_eager_world_recording(true);
    v2.AdoptCachesFrom(v1);
    ASSERT_TRUE(v2.ApplyDelta(v1, delta)) << c.id;
    // One list per column: a schedule longer than the scale mask records
    // several columns per N.
    const size_t columns_per_n = (c.scales.size() + 12) / 13;
    EXPECT_EQ(v2.cache_stats().world_lists_patched,
              c.sizes.size() * columns_per_n)
        << c.id;
    const uint64_t hits = v2.cache_stats().blob_hits;
    for (int n : c.sizes) {
      ExpectColumn(grown.engine.DegreesAt(v2, grown.query, n, grown.scales),
                   c, true, n, "patched");
    }
    EXPECT_GE(v2.cache_stats().blob_hits,
              hits + c.sizes.size() * columns_per_n)
        << c.id << ": every column should replay its patched list";
  }
}

TEST(ProfileEngineColumn, EstimateLimitMatchesPerPointSweep) {
  for (const auto& c : ColumnCases()) {
    const ColumnLimit* golden = nullptr;
    for (const auto& limit : ColumnLimits()) {
      if (limit.id == std::string(c.id)) golden = &limit;
    }
    ASSERT_NE(golden, nullptr) << c.id;
    for (bool caching : {false, true}) {
      for (int threads : {1, 3}) {
        SCOPED_TRACE(std::string(c.id) + (caching ? " caching" : " uncached") +
                     " threads=" + std::to_string(threads));
        ColumnInstance in = MakeColumnInstance(c, false);
        QueryContext ctx(in.kb.vocabulary(), in.kb.AsFormula(), caching);
        LimitOptions options;
        options.domain_sizes = c.sizes;
        options.tolerance_scales = c.scales;
        options.num_threads = threads;
        LimitResult r = EstimateLimit(in.engine, ctx, in.query,
                                      Tol(c.tolerance), options);
        EXPECT_EQ(r.value.has_value(), golden->has_value != 0);
        EXPECT_EQ(std::bit_cast<uint64_t>(r.value.value_or(0.0)),
                  golden->value);
        EXPECT_EQ(r.converged, golden->converged != 0);
        EXPECT_EQ(r.exhausted, golden->exhausted != 0);
        EXPECT_EQ(r.never_defined, golden->never_defined != 0);
        ASSERT_EQ(r.series.size(), golden->series.size());
        for (size_t i = 0; i < r.series.size(); ++i) {
          EXPECT_EQ(r.series[i].domain_size, golden->series[i].n);
          EXPECT_EQ(r.series[i].tolerance_scale, golden->series[i].scale);
          EXPECT_EQ(r.series[i].well_defined,
                    golden->series[i].well_defined != 0);
          EXPECT_EQ(std::bit_cast<uint64_t>(r.series[i].probability),
                    golden->series[i].probability);
        }
        if (!caching) continue;
        // The finite memo holds only points computed to completion, each
        // equal to its per-point row.
        for (int n : c.sizes) {
          const std::vector<ColumnPoint> points = ColumnPointsAt(c, false, n);
          for (size_t s = 0; s < c.scales.size(); ++s) {
            const std::string key =
                in.engine.name() + "|" + in.engine.CacheSalt() + "|" +
                std::to_string(in.query->id()) + "|" + std::to_string(n) +
                "|" + in.scales[s].CacheKey();
            FiniteResult stored;
            if (ctx.LookupFinite(key, &stored)) {
              ExpectPoint(stored, points[s], "memo");
            }
          }
        }
      }
    }
  }
}

// Logs the columns EstimateLimit asks the profile engine for.
class ColumnLoggingEngine : public ProfileEngine {
 public:
  using ProfileEngine::ProfileEngine;
  mutable std::vector<std::pair<int, size_t>> columns;

 protected:
  std::vector<FiniteResult> DegreesAtInContext(
      QueryContext& ctx, const FormulaPtr& query, int domain_size,
      const std::vector<semantics::ToleranceVector>& scales) const override {
    columns.emplace_back(domain_size, scales.size());
    return ProfileEngine::DegreesAtInContext(ctx, query, domain_size, scales);
  }
};

TEST(ProfileEngineColumn, SerialSweepComputesOnlyWhatItReads) {
  // The serial sweep reads scale-major and stops at its first exhausted
  // point, so it asks for one column per N, in N order, and once scale k
  // has exhausted, later columns hold only the scales before k.
  const std::map<std::string, std::vector<std::pair<int, size_t>>> expected = {
      {"negated", {{8, 3}, {16, 3}, {32, 3}}},
      // Scale 0 exhausts at N = 16: the sweep stops there.
      {"exhaust", {{8, 3}, {16, 3}}},
      // Scale 1 exhausts at N = 16: N = 32 computes scale 0 alone.
      {"exhaust-middle", {{8, 3}, {16, 3}, {32, 1}}},
  };
  for (const auto& c : ColumnCases()) {
    auto it = expected.find(c.id);
    if (it == expected.end()) continue;
    ColumnInstance in = MakeColumnInstance(c, false);
    ProfileEngine::Options options;
    options.max_leaves = c.max_leaves;
    ColumnLoggingEngine engine(options);
    QueryContext ctx(in.kb.vocabulary(), in.kb.AsFormula(),
                     /*caching_enabled=*/false);
    LimitOptions limit;
    limit.domain_sizes = c.sizes;
    limit.tolerance_scales = c.scales;
    EstimateLimit(engine, ctx, in.query, Tol(c.tolerance), limit);
    EXPECT_EQ(engine.columns, it->second) << c.id;
  }
}

// ---- Emptiness certificate ----

std::shared_ptr<const ProfileKbProgram> CompileKb(const KnowledgeBase& kb) {
  logic::ConstantSplit split = logic::SplitByConstants(kb.AsFormula());
  return CompileProfileKb(kb.vocabulary(), split.constant_free,
                          split.constant_dependent);
}

// The leaf's constraint test, written out independently of the DFS.
bool PassesLeafTest(const std::vector<PruneConstraint>& constraints,
                    const std::vector<int64_t>& counts) {
  for (const PruneConstraint& c : constraints) {
    int64_t body = 0;
    int64_t cond = 0;
    for (size_t a = 0; a < counts.size(); ++a) {
      if (c.body.Get(static_cast<int>(a))) body += counts[a];
      if (c.cond.Get(static_cast<int>(a))) cond += counts[a];
    }
    const double b = static_cast<double>(body);
    const double d = static_cast<double>(cond);
    if (c.lo * d > b + 1e-9 || b > c.hi * d + 1e-9) return false;
  }
  return true;
}

// Calls visit(counts) for every count vector with Σ n_a = n and n_a = 0
// off `allowed`; stops early when visit returns false.
bool ForEachCountVector(const logic::AtomSet& allowed, int64_t n,
                        const std::function<bool(const std::vector<int64_t>&)>&
                            visit) {
  const int atoms = allowed.num_atoms();
  std::vector<int64_t> counts(atoms, 0);
  std::function<bool(int, int64_t)> rec = [&](int a, int64_t left) {
    if (a == atoms - 1) {
      if (left > 0 && !allowed.Get(a)) return true;
      counts[a] = left;
      const bool go_on = visit(counts);
      counts[a] = 0;
      return go_on;
    }
    const int64_t max_here = allowed.Get(a) ? left : 0;
    for (int64_t v = 0; v <= max_here; ++v) {
      counts[a] = v;
      if (!rec(a + 1, left - v)) return false;
    }
    counts[a] = 0;
    return true;
  };
  return rec(0, n);
}

TEST(ProfileCertificate, SoundAgainstBruteForce) {
  std::mt19937_64 rng(20260736);
  auto below = [&](int n) { return static_cast<int>(rng() % n); };
  auto unit = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  int certified = 0;
  int empty = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int k = 1 + below(3);
    const int atoms = 1 << k;
    const int64_t n = 1 + below(12);
    logic::AtomSet allowed(atoms, true);
    if (below(3) == 0) {
      for (int a = 0; a < atoms; ++a) {
        if (below(4) == 0) allowed.Set(a, false);
      }
      allowed.Set(below(atoms), true);
    }
    std::vector<PruneConstraint> constraints;
    const int num = 1 + below(4);
    for (int j = 0; j < num; ++j) {
      PruneConstraint c;
      c.body = logic::AtomSet(atoms, false);
      c.cond = logic::AtomSet(atoms, below(2) == 0);
      for (int a = 0; a < atoms; ++a) {
        if (below(2) == 0) c.cond.Set(a, true);
        if (c.cond.Get(a) && below(2) == 0) c.body.Set(a, true);
      }
      // Values on the k/N grid with τ = 0, nudged by at most 1e-10, sit on
      // the boundary of the leaf test, inside its 1e-9 slack; the rest are
      // arbitrary doubles with some slack.
      static const double kNudges[] = {0.0, 1e-12, -1e-11, 1e-11, -1e-10};
      const bool on_grid = below(3) == 0;
      const double v =
          on_grid ? static_cast<double>(below(static_cast<int>(n) + 1)) /
                            static_cast<double>(n) +
                        kNudges[below(5)]
                  : unit();
      const double tau = on_grid ? 0.0 : 0.1 * unit();
      switch (below(3)) {
        case 0:
          c.lo = v - tau;
          c.hi = v + tau;
          break;
        case 1:
          c.lo = 0.0;
          c.hi = v + tau;
          break;
        default:
          c.lo = v - tau;
          c.hi = 1.0;
          break;
      }
      c.lo = std::max(0.0, c.lo);
      c.hi = std::min(1.0, c.hi);
      constraints.push_back(c);
    }
    const bool fired = CertifiesNoCountVector(constraints, allowed, n);
    const bool any_passes = !ForEachCountVector(
        allowed, n, [&](const std::vector<int64_t>& counts) {
          return !PassesLeafTest(constraints, counts);
        });
    if (fired) {
      ++certified;
      EXPECT_FALSE(any_passes) << "trial " << trial;
    }
    if (!any_passes) ++empty;
  }
  // The oracle must see the certificate fire often enough to mean
  // something.
  EXPECT_GT(certified, 500);
  EXPECT_GE(empty, certified);
}

TEST(ProfileCertificate, ContradictoryUpperBoundsCertify) {
  // #(¬P2) ≤ 0.48 and #(P2 ∨ P1) ≤ 0.203: P2 ⊆ P2 ∨ P1 and the two sets
  // cover every atom, so y = (1, 1) on the two upper rows certifies.
  logic::AtomSet allowed(4, true);
  PruneConstraint not_p2{logic::AtomSet(4, false), logic::AtomSet(4, true),
                         0.0, 0.48};
  PruneConstraint p2_or_p1{logic::AtomSet(4, false), logic::AtomSet(4, true),
                           0.0, 0.203};
  for (int a = 0; a < 4; ++a) {
    const bool p1 = (a & 1) != 0;
    const bool p2 = (a & 2) != 0;
    not_p2.body.Set(a, !p2);
    p2_or_p1.body.Set(a, p2 || p1);
  }
  for (int64_t n : {1, 8, 16, 32, 1000000}) {
    EXPECT_TRUE(CertifiesNoCountVector({not_p2, p2_or_p1}, allowed, n));
  }
  // Either bound alone is satisfiable.
  EXPECT_FALSE(CertifiesNoCountVector({not_p2}, allowed, 16));
  EXPECT_FALSE(CertifiesNoCountVector({p2_or_p1}, allowed, 16));
}

// The cold_solve items whose answer is "undefined / profile sweep": every
// point of their sweep (N ∈ {8, 16, 32} × τ-scales {1, .5, .25}) skips
// the DFS, and the answer is unchanged.
TEST(ProfileCertificate, UndefinedCatalogKbsSkipEveryDfs) {
  struct Item {
    const char* id;
    const char* kb;
    const char* query;
  };
  const Item items[] = {
      {"unary3-14",
       "(#(!P2(x))[x] ~= 0.44046782479702029)\n"
       "(#((P2(x) | P1(x)))[x] ~=_2 0.16293717854486184)\n"
       "P2(K0)\n"
       "P0(K0)\n",
       "!P1(K0)"},
      {"unary3-04",
       "(#(!P0(x))[x] ~= 0.55549255564642175)\n"
       "(#((!P1(x) & P1(x)) ; (P1(x) | P0(x)))[x] ~=_2 "
       "0.61851562542977157)\n"
       "P2(K0)\n"
       "P1(K0)\n",
       "(P2(K0) & !P1(K0))"},
  };
  for (const Item& item : items) {
    KnowledgeBase kb;
    ASSERT_TRUE(kb.AddParsed(item.kb)) << item.id;
    FormulaPtr query = logic::ParseFormula(item.query).formula;
    kb.RegisterQuerySymbols(query);
    InferenceOptions options;
    options.limit.domain_sizes = {8, 16, 32};
    auto program = CompileKb(kb);
    int certified = 0;
    for (int n : options.limit.domain_sizes) {
      for (double scale : options.limit.tolerance_scales) {
        const bool skipped = SweepPointCertifiedEmpty(
            *program, n, options.tolerances.Scaled(scale));
        EXPECT_TRUE(skipped) << item.id << " N=" << n << " scale=" << scale;
        certified += skipped ? 1 : 0;
      }
    }
    EXPECT_EQ(certified, 9) << item.id;
    Answer answer = DegreeOfBelief(kb, query, options);
    EXPECT_EQ(answer.status, Answer::Status::kUndefined) << item.id;
    EXPECT_EQ(answer.method, "profile sweep") << item.id;
  }
}

// Feasible KBs never take the certificate: not E5.24 over a long sweep,
// and no well-defined point of the golden-bits cases (whose recorded
// answers the golden tests above check through the same sweep).
TEST(ProfileCertificate, FeasibleKbsAreNeverCertified) {
  for (const auto& c : GoldenCases()) {
    for (bool appended : {false, true}) {
      GoldenInstance in = MakeInstance(c, appended);
      auto program = CompileKb(in.kb);
      for (const auto& point : PointsOf(c, appended)) {
        if (!point.well_defined) continue;
        EXPECT_FALSE(
            SweepPointCertifiedEmpty(*program, point.n, TolAt(c, point)))
            << c.id << (appended ? "+appended" : "") << " N=" << point.n
            << " scale=" << point.scale;
      }
    }
  }
  GoldenInstance e524 = MakeInstance(GoldenCases()[0], false);
  auto program = CompileKb(e524.kb);
  for (int n : {1, 2, 3, 5, 24}) {
    for (double scale : {1.0, 0.5, 0.25, 0.125}) {
      semantics::ToleranceVector tol = Tol(0.04).Scaled(scale);
      QueryContext ctx(e524.kb.vocabulary(), e524.kb.AsFormula(),
                       /*caching_enabled=*/false);
      if (!e524.engine.DegreeAt(ctx, e524.query, n, tol)
               .well_defined) {
        continue;
      }
      EXPECT_FALSE(SweepPointCertifiedEmpty(*program, n, tol))
          << "E5.24 N=" << n << " scale=" << scale;
    }
  }
}

}  // namespace
}  // namespace rwl::engines
