// Experiment family: representation dependence (Section 7.2): the
// White/Red/Blue refinement (1/2 → 1/3) and the Bird/FlyingBird encodings
// (robust 0.5 for Fly(Tweety); 1/2 vs 2/3 for Bird(Opus)).
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
  options.limit.domain_sizes = {32, 64, 96};
  options.limit.tolerance_scales = {1.0, 0.5};
  return options;
}

void ReportTable() {
  rwl::bench::PrintHeader("Representation dependence (Section 7.2)");

  {
    KnowledgeBase kb;
    kb.mutable_vocabulary().AddPredicate("White", 1);
    kb.mutable_vocabulary().AddConstant("B");
    rwl::bench::PrintRow("S7.2-white", "Pr(White(b)), {White} vocabulary",
                         "1/2", DegreeOfBelief(kb, "White(B)", Options()));
  }
  {
    KnowledgeBase kb;
    kb.AddParsed(
        "forall x. (!White(x) <=> (Red(x) | Blue(x)))\n"
        "forall x. !(Red(x) & Blue(x))\n");
    kb.mutable_vocabulary().AddConstant("B");
    rwl::bench::PrintRow("S7.2-refined",
                         "after refining ¬White into Red ⊎ Blue", "1/3",
                         DegreeOfBelief(kb, "White(B)", Options()));
  }
  {
    KnowledgeBase kb;
    kb.AddParsed("#(Fly(x) ; Bird(x))[x] ~= 0.5\nBird(Tweety)\n");
    kb.mutable_vocabulary().AddConstant("Opus");
    rwl::bench::PrintRow("S7.2-fly-direct", "Pr(Fly(Tweety)), Fly/Bird",
                         "0.5", DegreeOfBelief(kb, "Fly(Tweety)", Options()));
    rwl::bench::PrintRow("S7.2-bird-direct", "Pr(Bird(Opus)), Fly/Bird",
                         "0.5", DegreeOfBelief(kb, "Bird(Opus)", Options()));
  }
  {
    KnowledgeBase kb;
    kb.AddParsed(
        "#(FlyingBird(x) ; Bird(x))[x] ~= 0.5\n"
        "Bird(Tweety)\n"
        "forall x. (FlyingBird(x) => Bird(x))\n");
    kb.mutable_vocabulary().AddConstant("Opus");
    rwl::bench::PrintRow("S7.2-fly-fb",
                         "Pr(FlyingBird(Tweety)), FlyingBird encoding",
                         "0.5",
                         DegreeOfBelief(kb, "FlyingBird(Tweety)", Options()));
    rwl::bench::PrintRow("S7.2-bird-fb",
                         "Pr(Bird(Opus)), FlyingBird encoding", "2/3",
                         DegreeOfBelief(kb, "Bird(Opus)", Options()));
  }
}

void BM_RefinedVocabulary(benchmark::State& state) {
  KnowledgeBase kb;
  kb.AddParsed(
      "forall x. (!White(x) <=> (Red(x) | Blue(x)))\n"
      "forall x. !(Red(x) & Blue(x))\n");
  kb.mutable_vocabulary().AddConstant("B");
  InferenceOptions options = Options();
  options.strategies.Remove("symbolic");
  options.limit.domain_sizes = {32};
  options.limit.tolerance_scales = {1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DegreeOfBelief(kb, "White(B)", options));
  }
}
BENCHMARK(BM_RefinedVocabulary);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
