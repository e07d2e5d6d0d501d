// Data-driven run of every paper claim (src/fixtures) through the public
// inference facade.  One TEST_P instance per row, named by the row id, so
// a failing paper claim is visible directly in the ctest output.
#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/fixtures/paper_kbs.h"

namespace rwl {
namespace {

using fixtures::PaperExample;

class PaperCorpus : public ::testing::TestWithParam<PaperExample> {};

TEST_P(PaperCorpus, ReproducesPaperValue) {
  const PaperExample& example = GetParam();
  KnowledgeBase kb;
  std::string error;
  ASSERT_TRUE(kb.AddParsed(example.kb, &error)) << error;
  for (const auto& constant : example.extra_constants) {
    kb.mutable_vocabulary().AddConstant(constant);
  }

  Answer answer = DegreeOfBelief(kb, example.query, example.options);

  switch (example.expect) {
    case PaperExample::Expect::kPoint:
      ASSERT_EQ(answer.status, Answer::Status::kPoint)
          << StatusToString(answer.status) << ": " << answer.explanation;
      EXPECT_NEAR(answer.value, example.value, example.tolerance)
          << answer.method;
      break;
    case PaperExample::Expect::kInterval: {
      // Accept the exact interval (symbolic) or a point inside it
      // (numeric sharpening).
      ASSERT_TRUE(answer.status == Answer::Status::kPoint ||
                  answer.status == Answer::Status::kInterval)
          << StatusToString(answer.status) << ": " << answer.explanation;
      EXPECT_GE(answer.lo, example.lo - example.tolerance) << answer.method;
      EXPECT_LE(answer.hi, example.hi + example.tolerance) << answer.method;
      break;
    }
    case PaperExample::Expect::kNonexistent:
      EXPECT_EQ(answer.status, Answer::Status::kNonexistent)
          << answer.explanation;
      break;
    case PaperExample::Expect::kUndefined:
      EXPECT_EQ(answer.status, Answer::Status::kUndefined)
          << answer.explanation;
      break;
  }
}

std::string ExampleName(const ::testing::TestParamInfo<PaperExample>& info) {
  std::string name = info.param.id;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(All, PaperCorpus,
                         ::testing::ValuesIn(fixtures::AllPaperClaims()),
                         ExampleName);

TEST(FixturesApi, LookupById) {
  const PaperExample& e = fixtures::ExampleById("E5.8");
  EXPECT_EQ(e.query, "Hep(Eric)");
  EXPECT_EQ(e.expect, PaperExample::Expect::kPoint);
}

TEST(FixturesApi, ClaimsExtendTheCorpus) {
  const auto& corpus = fixtures::AllPaperExamples();
  const auto& claims = fixtures::AllPaperClaims();
  EXPECT_EQ(corpus.size(), 22u);
  ASSERT_GT(claims.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(claims[i].id, corpus[i].id);
  }
}

}  // namespace
}  // namespace rwl
