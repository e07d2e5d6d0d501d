// The whole paper corpus in one table: every fixture from
// src/fixtures/paper_kbs run through the public facade, paper vs measured.
// This is the single-screen summary of the reproduction.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/fixtures/paper_kbs.h"

namespace {

using rwl::Answer;
using rwl::fixtures::PaperExample;

std::string PaperString(const PaperExample& e) {
  char buf[64];
  switch (e.expect) {
    case PaperExample::Expect::kPoint:
      std::snprintf(buf, sizeof(buf), "%.4f", e.value);
      return buf;
    case PaperExample::Expect::kInterval:
      std::snprintf(buf, sizeof(buf), "[%.2f, %.2f]", e.lo, e.hi);
      return buf;
    case PaperExample::Expect::kNonexistent:
      return "no limit";
    case PaperExample::Expect::kUndefined:
      return "inconsistent";
  }
  return "?";
}

void ReportTable() {
  rwl::bench::PrintHeader("Full paper corpus (src/fixtures)");
  int agreements = 0;
  int total = 0;
  for (const auto& example : rwl::fixtures::AllPaperExamples()) {
    rwl::KnowledgeBase kb;
    std::string error;
    if (!kb.AddParsed(example.kb, &error)) {
      std::printf("  [%s] PARSE ERROR: %s\n", example.id.c_str(),
                  error.c_str());
      continue;
    }
    for (const auto& constant : example.extra_constants) {
      kb.mutable_vocabulary().AddConstant(constant);
    }
    rwl::InferenceOptions options;
    options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.04);
    options.limit.domain_sizes = {16, 32, 48};
    options.limit.tolerance_scales = {1.0, 0.5};
    if (example.numeric_only) {
      options.strategies.Remove("symbolic").Remove("maxent").Remove("exact");
      options.limit.domain_sizes = {32, 64, 128};
      options.limit.tolerance_scales = {1.0};
    }
    Answer answer = rwl::DegreeOfBelief(kb, example.query, options);
    rwl::bench::PrintRow(example.id, example.description,
                         PaperString(example), answer);
    ++total;
    bool agrees = false;
    switch (example.expect) {
      case PaperExample::Expect::kPoint:
        agrees = (answer.status == Answer::Status::kPoint ||
                  answer.status == Answer::Status::kInterval) &&
                 std::abs(answer.lo - example.value) <= example.tolerance &&
                 std::abs(answer.hi - example.value) <= example.tolerance;
        break;
      case PaperExample::Expect::kInterval:
        agrees = (answer.status == Answer::Status::kPoint ||
                  answer.status == Answer::Status::kInterval) &&
                 answer.lo >= example.lo - example.tolerance &&
                 answer.hi <= example.hi + example.tolerance;
        break;
      case PaperExample::Expect::kNonexistent:
        agrees = answer.status == Answer::Status::kNonexistent;
        break;
      case PaperExample::Expect::kUndefined:
        agrees = answer.status == Answer::Status::kUndefined;
        break;
    }
    if (agrees) ++agreements;
  }
  std::printf("\n  corpus agreement: %d / %d\n", agreements, total);
}

void BM_FullCorpus(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& example : rwl::fixtures::AllPaperExamples()) {
      if (example.numeric_only) continue;  // keep the benchmark symbolic
      rwl::KnowledgeBase kb;
      kb.AddParsed(example.kb);
      for (const auto& constant : example.extra_constants) {
        kb.mutable_vocabulary().AddConstant(constant);
      }
      rwl::InferenceOptions options;
      options.strategies.Remove("profile").Remove("maxent").Remove("exact");
      benchmark::DoNotOptimize(
          rwl::DegreeOfBelief(kb, example.query, options));
    }
  }
}
BENCHMARK(BM_FullCorpus);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
