// Experiment family: default independence (Theorem 5.27 / Example 5.28)
// and the maxent counterexample where independence must NOT appear
// (Example 5.29).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"

namespace {

using rwl::Answer;
using rwl::DegreeOfBelief;
using rwl::InferenceOptions;
using rwl::KnowledgeBase;

InferenceOptions Options() {
  InferenceOptions options;
  options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.04);
  options.limit.domain_sizes = {16, 32, 48};
  options.limit.tolerance_scales = {1.0, 0.5};
  return options;
}

KnowledgeBase JointKb() {
  KnowledgeBase kb;
  kb.AddParsed(
      "#(Hep(x) ; Jaun(x))[x] ~=_1 0.8\n"
      "Jaun(Eric)\n"
      "#(Over60(x) ; Patient(x))[x] ~=_5 0.4\n"
      "Patient(Eric)\n");
  return kb;
}

void ReportTable() {
  rwl::bench::PrintHeader("Independence (Theorem 5.27 / Examples 5.28-5.29)");
  {
    KnowledgeBase kb = JointKb();
    rwl::bench::PrintRow(
        "E5.28-product", "Pr(Hep ∧ Over60) = 0.8 × 0.4", "0.32",
        DegreeOfBelief(kb, "Hep(Eric) & Over60(Eric)", Options()));
    rwl::bench::PrintRow("E5.28-left", "Pr(Hep(Eric)) alone", "0.8",
                         DegreeOfBelief(kb, "Hep(Eric)", Options()));
    rwl::bench::PrintRow("E5.28-right", "Pr(Over60(Eric)) alone", "0.4",
                         DegreeOfBelief(kb, "Over60(Eric)", Options()));
  }
  {
    // Numeric confirmation of the product (no symbolic shortcut).
    KnowledgeBase kb = JointKb();
    InferenceOptions numeric = Options();
    numeric.strategies.Remove("symbolic");
    numeric.limit.domain_sizes = {16, 24};
    rwl::bench::PrintRow(
        "E5.28-numeric", "product confirmed by profile sweep", "0.32",
        DegreeOfBelief(kb, "Hep(Eric) & Over60(Eric)", numeric));
  }
  {
    // Example 5.29: Pr(Black(Clyde)) = 0.47, not 0.2 — no independence
    // assumption between Bird and Black.
    KnowledgeBase kb;
    kb.AddParsed(
        "#(Black(x) ; Bird(x))[x] ~=_1 0.2\n"
        "#(Bird(x))[x] ~=_2 0.1\n");
    kb.mutable_vocabulary().AddConstant("Clyde");
    rwl::bench::PrintRow("E5.29-maxent",
                         "Pr(Black(Clyde)): 0.1·0.2 + 0.9/2", "0.47",
                         DegreeOfBelief(kb, "Black(Clyde)", Options()));
  }
}

void BM_IndependenceSplit(benchmark::State& state) {
  KnowledgeBase kb = JointKb();
  InferenceOptions options = Options();
  options.strategies.Remove("profile").Remove("maxent").Remove("exact");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DegreeOfBelief(kb, "Hep(Eric) & Over60(Eric)", options));
  }
}
BENCHMARK(BM_IndependenceSplit);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
