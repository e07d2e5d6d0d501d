#include "src/logic/vocabulary.h"

#include <gtest/gtest.h>

namespace rwl::logic {
namespace {

TEST(Vocabulary, RegistersPredicates) {
  Vocabulary vocab;
  int bird = vocab.AddPredicate("Bird", 1);
  int likes = vocab.AddPredicate("Likes", 2);
  EXPECT_EQ(bird, 0);
  EXPECT_EQ(likes, 1);
  EXPECT_EQ(vocab.num_predicates(), 2);
  auto found = vocab.FindPredicate("Bird");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->arity, 1);
}

TEST(Vocabulary, RegistrationIsIdempotent) {
  Vocabulary vocab;
  int a = vocab.AddPredicate("Bird", 1);
  int b = vocab.AddPredicate("Bird", 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(vocab.num_predicates(), 1);
}

TEST(Vocabulary, ConstantsAreNullaryFunctions) {
  Vocabulary vocab;
  vocab.AddConstant("Tweety");
  vocab.AddFunction("NextDay", 1);
  auto constants = vocab.Constants();
  ASSERT_EQ(constants.size(), 1u);
  EXPECT_EQ(constants[0].name, "Tweety");
}

TEST(Vocabulary, UnknownSymbolLookup) {
  Vocabulary vocab;
  EXPECT_FALSE(vocab.FindPredicate("Nope").has_value());
  EXPECT_FALSE(vocab.FindFunction("Nope").has_value());
}

TEST(Vocabulary, UnaryRelationalDetection) {
  Vocabulary unary;
  unary.AddPredicate("Bird", 1);
  unary.AddConstant("Tweety");
  EXPECT_TRUE(unary.IsUnaryRelational());

  Vocabulary binary;
  binary.AddPredicate("Likes", 2);
  EXPECT_FALSE(binary.IsUnaryRelational());

  Vocabulary functional;
  functional.AddPredicate("Bird", 1);
  functional.AddFunction("NextDay", 1);
  EXPECT_FALSE(functional.IsUnaryRelational());
}

TEST(Vocabulary, ConflictsNameTheClashingDeclaration) {
  Vocabulary vocab;
  vocab.AddPredicate("Hep", 1);
  vocab.AddConstant("Eric");
  vocab.AddFunction("Father", 1);
  EXPECT_EQ(vocab.PredicateConflict("Hep", 1), "");
  EXPECT_EQ(vocab.PredicateConflict("Jaun", 2), "");
  EXPECT_EQ(vocab.FunctionConflict("Father", 1), "");
  EXPECT_EQ(vocab.PredicateConflict("Hep", 2),
            "cannot declare predicate 'Hep' with arity 2: already arity 1");
  EXPECT_EQ(vocab.PredicateConflict("Eric", 1),
            "cannot declare predicate 'Eric': already a constant");
  EXPECT_EQ(vocab.PredicateConflict("Father", 1),
            "cannot declare predicate 'Father': already a function");
  EXPECT_EQ(vocab.FunctionConflict("Hep", 0),
            "cannot declare constant 'Hep': already a predicate");
  EXPECT_EQ(vocab.FunctionConflict("Hep", 1),
            "cannot declare function 'Hep': already a predicate");
  EXPECT_EQ(vocab.FunctionConflict("Father", 0),
            "cannot declare constant 'Father': already a function");
  EXPECT_EQ(vocab.FunctionConflict("Eric", 1),
            "cannot declare function 'Eric': already a constant");
  EXPECT_EQ(vocab.FunctionConflict("Father", 2),
            "cannot declare function 'Father' with arity 2: already arity 1");
}

}  // namespace
}  // namespace rwl::logic
