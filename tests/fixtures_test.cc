// Data-driven run of the whole paper corpus (src/fixtures) through the
// public inference facade.  One TEST_P instance per example, named by the
// example id, so a failing paper claim is visible directly in the ctest
// output.
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

  InferenceOptions options;
  options.tolerances = semantics::ToleranceVector::Uniform(0.04);
  options.limit.domain_sizes = {16, 32, 48};
  options.limit.tolerance_scales = {1.0, 0.5};
  if (example.numeric_only) {
    options.strategies.Remove("symbolic").Remove("maxent").Remove("exact");
    options.limit.domain_sizes = {32, 64, 128};
    options.limit.tolerance_scales = {1.0};
  }
  Answer answer = DegreeOfBelief(kb, example.query, options);

  switch (example.expect) {
    case PaperExample::Expect::kPoint:
      ASSERT_TRUE(answer.status == Answer::Status::kPoint ||
                  answer.status == Answer::Status::kInterval)
          << StatusToString(answer.status) << ": " << answer.explanation;
      EXPECT_NEAR(answer.lo, example.value, example.tolerance)
          << answer.method;
      EXPECT_NEAR(answer.hi, example.value, example.tolerance)
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
                         ::testing::ValuesIn(fixtures::AllPaperExamples()),
                         ExampleName);

TEST(FixturesApi, LookupById) {
  const PaperExample& e = fixtures::ExampleById("E5.8");
  EXPECT_EQ(e.query, "Hep(Eric)");
  EXPECT_EQ(e.expect, PaperExample::Expect::kPoint);
}

TEST(FixturesApi, CorpusIsNonTrivial) {
  EXPECT_GE(fixtures::AllPaperExamples().size(), 18u);
}

}  // namespace
}  // namespace rwl
