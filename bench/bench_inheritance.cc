// Experiment family: specificity and inheritance (Examples 5.10, 5.15,
// 5.19, 5.20, 5.21 and the Tay-Sachs disjunctive class, Example 5.22).
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

KnowledgeBase FlyKb() {
  KnowledgeBase kb;
  kb.AddParsed(
      "#(Fly(x) ; Bird(x))[x] ~=_1 1\n"
      "#(Fly(x) ; Penguin(x))[x] ~=_2 0\n"
      "forall x. (Penguin(x) => Bird(x))\n");
  return kb;
}

void ReportTable() {
  rwl::bench::PrintHeader("Specificity & inheritance (Section 5.2)");

  {
    KnowledgeBase kb = FlyKb();
    kb.AddParsed("Penguin(Tweety)");
    rwl::bench::PrintRow("E5.10-specificity",
                         "penguin Tweety does not fly", "0",
                         DegreeOfBelief(kb, "Fly(Tweety)", Options()));
  }
  {
    KnowledgeBase kb = FlyKb();
    kb.AddParsed("Penguin(Tweety)\nYellow(Tweety)");
    rwl::bench::PrintRow("E5.19-irrelevance",
                         "yellow penguin still does not fly", "0",
                         DegreeOfBelief(kb, "Fly(Tweety)", Options()));
  }
  {
    KnowledgeBase kb = FlyKb();
    kb.AddParsed(
        "#(WarmBlooded(x) ; Bird(x))[x] ~=_3 1\n"
        "Penguin(Tweety)");
    rwl::bench::PrintRow(
        "E5.20-exceptional",
        "exceptional subclass inherits warm-bloodedness", "1",
        DegreeOfBelief(kb, "WarmBlooded(Tweety)", Options()));
  }
  {
    KnowledgeBase kb = FlyKb();
    kb.AddParsed(
        "#(EasyToSee(x) ; Yellow(x))[x] ~=_3 1\n"
        "Penguin(Tweety)\nYellow(Tweety)");
    rwl::bench::PrintRow("E5.21-drowning",
                         "yellow penguin is easy to see", "1",
                         DegreeOfBelief(kb, "EasyToSee(Tweety)", Options()));
  }
  {
    KnowledgeBase kb;
    kb.AddParsed(
        "#(Swims(x) ; Penguin(x))[x] ~=_1 0.9\n"
        "#(Swims(x) ; Sparrow(x))[x] ~=_2 0.01\n"
        "#(Swims(x) ; Bird(x))[x] ~=_3 0.05\n"
        "#(Swims(x) ; Animal(x))[x] ~=_4 0.3\n"
        "#(Swims(x) ; Fish(x))[x] ~=_5 1\n"
        "forall x. (Penguin(x) => Bird(x))\n"
        "forall x. (Sparrow(x) => Bird(x))\n"
        "forall x. (Bird(x) => Animal(x))\n"
        "forall x. (Fish(x) => Animal(x))\n"
        "forall x. (Penguin(x) => !Sparrow(x))\n"
        "forall x. (Bird(x) => !Fish(x))\n"
        "Penguin(Opus)\nBlack(Opus)\nLargeNose(Opus)\n");
    rwl::bench::PrintRow("E5.15-taxonomy",
                         "Opus swims via minimal class (penguins)", "0.9",
                         DegreeOfBelief(kb, "Swims(Opus)", Options()));
  }
  {
    KnowledgeBase kb;
    kb.AddParsed(
        "#(TS(x) ; EEJ(x) | FC(x))[x] ~= 0.02\n"
        "EEJ(Eric)\n");
    rwl::bench::PrintRow("E5.22-disjunctive",
                         "Tay-Sachs via disjunctive class", "0.02",
                         DegreeOfBelief(kb, "TS(Eric)", Options()));
  }
}

void BM_InheritanceSymbolic(benchmark::State& state) {
  KnowledgeBase kb = FlyKb();
  kb.AddParsed(
      "#(EasyToSee(x) ; Yellow(x))[x] ~=_3 1\n"
      "Penguin(Tweety)\nYellow(Tweety)");
  InferenceOptions options = Options();
  options.strategies.Remove("profile").Remove("maxent").Remove("exact");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DegreeOfBelief(kb, "EasyToSee(Tweety)", options));
  }
}
BENCHMARK(BM_InheritanceSymbolic);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
