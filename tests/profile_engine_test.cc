#include "src/engines/profile_engine.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/logic/builder.h"
#include "src/logic/parser.h"

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
  EXPECT_TRUE(engine.Supports(unary, Formula::True(), Formula::True(), 16));

  logic::Vocabulary binary;
  binary.AddPredicate("R", 2);
  EXPECT_FALSE(engine.Supports(binary, Formula::True(), Formula::True(), 16));

  logic::Vocabulary functional;
  functional.AddPredicate("A", 1);
  functional.AddFunction("F", 1);
  EXPECT_FALSE(
      engine.Supports(functional, Formula::True(), Formula::True(), 16));
}

TEST(ProfileEngine, TrivialPriorIsHalf) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("White", 1);
  vocab.AddConstant("B");
  ProfileEngine engine;
  for (int n : {1, 4, 16, 64}) {
    FiniteResult r = engine.DegreeAt(vocab, Formula::True(),
                                     P("White", C("B")), n, Tol(0.1));
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
  FiniteResult r = engine.DegreeAt(vocab, kb, P("Hep", C("Eric")), 60,
                                   Tol(0.05));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 0.8, 0.03);
}

TEST(ProfileEngine, WorldCountMatchesClosedForm) {
  // KB = true over one predicate: total worlds = 2^N.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(vocab, Formula::True(), Formula::True(),
                                   10, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.log_denominator, 10 * std::log(2.0), 1e-9);
}

TEST(ProfileEngine, WorldCountWithConstant) {
  // One predicate + one constant: 2^N · N interpretations.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddConstant("K");
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(vocab, Formula::True(), Formula::True(),
                                   8, Tol(0.1));
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
  FiniteResult r = engine.DegreeAt(vocab, kb, Formula::True(), 6, Tol(0.1));
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
  FiniteResult r = engine.DegreeAt(vocab, kb, Formula::True(), 8, Tol(0.1));
  EXPECT_FALSE(r.well_defined);
}

TEST(ProfileEngine, EqualityBetweenConstants) {
  logic::Vocabulary vocab;
  vocab.AddConstant("C1");
  vocab.AddConstant("C2");
  // With an empty predicate set there is a single atom; placements encode
  // only coincidence.  Pr(C1 = C2) = 1/N.
  ProfileEngine engine;
  for (int n : {2, 5, 10}) {
    FiniteResult r = engine.DegreeAt(vocab, Formula::True(),
                                     logic::Eq(C("C1"), C("C2")), n,
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
  FiniteResult r = engine.DegreeAt(vocab, kb, P("Fly", C("Tweety")), 80,
                                   Tol(0.02));
  ASSERT_TRUE(r.well_defined);
  EXPECT_GT(r.probability, 0.95);
}

TEST(ProfileEngine, ExistentialQuantifierOverProfiles) {
  // Pr(∃x A(x)) = 1 - 2^-N.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(vocab, Formula::True(),
                                   Formula::Exists("x", P("A", V("x"))), 6,
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
  FiniteResult r = engine.DegreeAt(vocab, Formula::True(), query, 6,
                                   Tol(0.1));
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
  FiniteResult r = engine.DegreeAt(vocab, Formula::True(), Formula::True(),
                                   32, Tol(0.1));
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
      for (const auto& point : PointsOf(c, appended)) {
        ExpectGolden(in.engine.DegreeAt(in.kb.vocabulary(), in.kb.AsFormula(),
                                        in.query, point.n, TolAt(c, point)),
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
      FiniteResult fresh =
          grown.engine.DegreeAt(grown.kb.vocabulary(), grown.kb.AsFormula(),
                                grown.query, point.n, tol);
      ExpectGolden(fresh, point, "fresh sweep of the appended KB");
      ExpectGolden(grown.engine.DegreeAt(v2, grown.query, point.n, tol),
                   point, "patched");
    }
  }
}

}  // namespace
}  // namespace rwl::engines
