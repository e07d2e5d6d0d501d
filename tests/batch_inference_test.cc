// Batch API: DegreesOfBelief must agree with per-query DegreeOfBelief —
// including bit-identical values with caching on, off, and across the
// textual form — and handle duplicates and parse failures gracefully.
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/fixtures/paper_kbs.h"
#include "src/logic/parser.h"
#include "src/logic/transform.h"
#include "src/workload/generators.h"

namespace rwl {
namespace {

KnowledgeBase SpecificityKb() {
  KnowledgeBase kb;
  std::string error;
  bool ok = kb.AddParsed(fixtures::ExampleById("E5.10").kb, &error);
  EXPECT_TRUE(ok) << error;
  return kb;
}

std::vector<logic::FormulaPtr> ParseAll(
    const std::vector<std::string>& texts) {
  std::vector<logic::FormulaPtr> out;
  for (const auto& text : texts) {
    logic::ParseResult parsed = logic::ParseFormula(text);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.error;
    out.push_back(parsed.formula);
  }
  return out;
}

void ExpectSameAnswer(const Answer& a, const Answer& b,
                      const std::string& what) {
  EXPECT_EQ(static_cast<int>(a.status), static_cast<int>(b.status)) << what;
  EXPECT_EQ(a.value, b.value) << what;
  EXPECT_EQ(a.lo, b.lo) << what;
  EXPECT_EQ(a.hi, b.hi) << what;
  EXPECT_EQ(a.method, b.method) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
}

TEST(BatchInference, AgreesWithSequentialCalls) {
  KnowledgeBase kb = SpecificityKb();
  std::vector<std::string> texts = {
      "Fly(Tweety)",  "Bird(Tweety)",           "Penguin(Tweety)",
      "!Fly(Tweety)", "Fly(Tweety) | Bird(Tweety)",
  };
  std::vector<logic::FormulaPtr> queries = ParseAll(texts);

  InferenceOptions options;
  options.limit.domain_sizes = {8, 16, 24};

  std::vector<Answer> batch = DegreesOfBelief(kb, queries, options);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Answer single = DegreeOfBelief(kb, queries[i], options);
    ExpectSameAnswer(batch[i], single, texts[i]);
  }
}

TEST(BatchInference, CachingOnAndOffAreBitIdentical) {
  KnowledgeBase kb = SpecificityKb();
  std::vector<logic::FormulaPtr> queries = ParseAll({
      "Fly(Tweety)",
      "Bird(Tweety) & !Fly(Tweety)",
      "#(Fly(x) ; Bird(x))[x] ~= 1",
      "Penguin(Tweety) => Bird(Tweety)",
  });

  InferenceOptions cached;
  // Route everything through the sweeps.
  cached.strategies.Remove("symbolic");
  cached.limit.domain_sizes = {8, 16};
  InferenceOptions uncached = cached;
  uncached.enable_caching = false;

  std::vector<Answer> with_cache = DegreesOfBelief(kb, queries, cached);
  std::vector<Answer> without_cache = DegreesOfBelief(kb, queries, uncached);
  ASSERT_EQ(with_cache.size(), without_cache.size());
  for (size_t i = 0; i < with_cache.size(); ++i) {
    ExpectSameAnswer(with_cache[i], without_cache[i],
                     "query #" + std::to_string(i));
    ASSERT_EQ(with_cache[i].series.size(), without_cache[i].series.size());
    for (size_t j = 0; j < with_cache[i].series.size(); ++j) {
      EXPECT_EQ(with_cache[i].series[j].probability,
                without_cache[i].series[j].probability);
    }
  }
}

TEST(BatchInference, DeduplicatesRepeatedQueries) {
  KnowledgeBase kb = SpecificityKb();
  // Hash-consing makes the three copies pointer-equal; the batch answers
  // the formula once and fans the answer out.
  std::vector<logic::FormulaPtr> queries = ParseAll({
      "Fly(Tweety)",
      "Fly(Tweety)",
      "Bird(Tweety)",
      "Fly(Tweety)",
  });
  ASSERT_EQ(queries[0].get(), queries[1].get());
  ASSERT_EQ(queries[0].get(), queries[3].get());

  std::vector<Answer> answers = DegreesOfBelief(kb, queries);
  ASSERT_EQ(answers.size(), 4u);
  ExpectSameAnswer(answers[0], answers[1], "dup 1");
  ExpectSameAnswer(answers[0], answers[3], "dup 3");
}

TEST(BatchInference, QueriesWithFreshSymbolsDoNotPerturbOthers) {
  // A query introducing predicates/constants absent from the KB must not
  // change the other queries' answers (a shared union vocabulary would
  // grow their world space and can flip engine support limits), and must
  // itself match its sequential answer.
  KnowledgeBase kb = SpecificityKb();
  std::vector<logic::FormulaPtr> queries = ParseAll({
      "Fly(Tweety)",
      "Extra1(Other) & Extra2(Other) & Extra3(Other)",
      "Bird(Tweety)",
  });
  InferenceOptions options;
  options.limit.domain_sizes = {8, 16};

  std::vector<Answer> batch = DegreesOfBelief(kb, queries, options);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < queries.size(); ++i) {
    Answer single = DegreeOfBelief(kb, queries[i], options);
    ExpectSameAnswer(batch[i], single, "query #" + std::to_string(i));
  }
}

TEST(BatchInference, TextualFormReportsParseErrorsPerQuery) {
  KnowledgeBase kb = SpecificityKb();
  std::vector<std::string> texts = {
      "Fly(Tweety)",
      "Fly(",  // malformed
      "Bird(Tweety)",
  };
  std::vector<Answer> answers = DegreesOfBelief(kb, texts);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_NE(answers[0].status, Answer::Status::kUnknown);
  EXPECT_EQ(answers[1].status, Answer::Status::kUnknown);
  EXPECT_NE(answers[1].explanation.find("parse error"), std::string::npos);
  EXPECT_NE(answers[2].status, Answer::Status::kUnknown);
}

TEST(BatchInference, FuzzGeneratedKbsMatchSequentialBitForBit) {
  // Beyond the paper fixtures: on randomly generated unary KBs — mixed
  // statistics and defaults, nested class expressions, duplicate queries,
  // and an occasional fresh-symbol query — every batch answer (and its
  // convergence series) must equal the sequential call exactly.
  std::mt19937 rng(20260730);
  InferenceOptions options;
  options.limit.domain_sizes = {6, 9, 12};

  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    workload::UnaryKbParams params;
    params.num_predicates = 1 + trial % 3;
    params.num_constants = 1 + trial % 2;
    params.num_statements = 1 + trial % 2;
    params.num_facts = trial % 2;
    params.default_fraction = (trial % 2) * 0.5;
    params.max_depth = 1 + trial % 2;

    KnowledgeBase kb;
    for (const auto& conjunct :
         logic::Conjuncts(workload::RandomUnaryKb(params, &rng))) {
      kb.Add(conjunct);
    }
    std::vector<logic::FormulaPtr> queries =
        workload::RandomQueryBatch(params, 4, &rng);
    if (trial % 3 == 0) {
      // A query whose symbols the KB has never seen: must be answered in
      // its own context without perturbing the others.
      queries.push_back(
          logic::ParseFormula("(Fresh(Novel) & P0(Novel))").formula);
    }

    std::vector<Answer> batch = DegreesOfBelief(kb, queries, options);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      Answer single = DegreeOfBelief(kb, queries[i], options);
      ExpectSameAnswer(batch[i], single,
                       "trial " + std::to_string(trial) + " query #" +
                           std::to_string(i));
      ASSERT_EQ(batch[i].series.size(), single.series.size());
      for (size_t j = 0; j < batch[i].series.size(); ++j) {
        EXPECT_EQ(batch[i].series[j].probability,
                  single.series[j].probability);
        EXPECT_EQ(batch[i].series[j].well_defined,
                  single.series[j].well_defined);
      }
      ++compared;
    }
  }
  EXPECT_GE(compared, 32);
}

TEST(BatchInference, PaperFixtureValuesSurvive) {
  // The batch path must still reproduce the paper's numbers.
  const auto& example = fixtures::ExampleById("E5.10");
  KnowledgeBase kb;
  std::string error;
  ASSERT_TRUE(kb.AddParsed(example.kb, &error)) << error;
  std::vector<std::string> texts = {example.query};
  std::vector<Answer> answers = DegreesOfBelief(kb, texts);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].status, Answer::Status::kPoint);
  EXPECT_NEAR(answers[0].value, example.value, example.tolerance);
}

}  // namespace
}  // namespace rwl
