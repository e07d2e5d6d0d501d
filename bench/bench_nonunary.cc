// Experiment family: the expressiveness showcases beyond unary vocabularies
// (Sections 3.4 / 4.3): the elephant–zookeeper defaults (Examples 4.4 and
// 5.12), quantified defaults (Examples 4.5 / 5.13), and the Morreau nested
// defaults (Examples 4.6 / 5.14).
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
  options.limit.domain_sizes = {16, 32};
  options.limit.tolerance_scales = {1.0, 0.5};
  return options;
}

void ReportTable() {
  rwl::bench::PrintHeader("Non-unary and nested defaults (Sections 3.4/4.3)");

  {
    KnowledgeBase kb;
    kb.AddParsed(
        "#(Likes(x, y) ; Elephant(x) & Zookeeper(y))[x,y] ~=_1 1\n"
        "#(Likes(x, Fred) ; Elephant(x))[x] ~=_2 0\n"
        "Zookeeper(Fred)\n"
        "Elephant(Clyde)\n"
        "Zookeeper(Eric)\n");
    rwl::bench::PrintRow("E5.12-eric", "Clyde likes zookeeper Eric", "1",
                         DegreeOfBelief(kb, "Likes(Clyde, Eric)", Options()));
    rwl::bench::PrintRow("E5.12-fred", "Clyde likes Fred", "0",
                         DegreeOfBelief(kb, "Likes(Clyde, Fred)", Options()));
  }
  {
    KnowledgeBase kb;
    kb.AddParsed(
        "#(Tall(x) ; exists y. (Child(x, y) & Tall(y)))[x] ~=_1 1\n"
        "exists y. (Child(Alice, y) & Tall(y))\n");
    rwl::bench::PrintRow("E5.13-tall",
                         "Alice has a tall parent ⇒ Alice tall", "1",
                         DegreeOfBelief(kb, "Tall(Alice)", Options()));
  }
  {
    KnowledgeBase kb;
    kb.AddParsed(
        "#(#(RisesLate(x, y) ; Day(y))[y] ~=_1 1 ; "
        "#(ToBedLate(x, y2) ; Day(y2))[y2] ~=_2 1)[x] ~=_3 1\n"
        "#(ToBedLate(Alice, y2) ; Day(y2))[y2] ~=_2 1\n");
    rwl::bench::PrintRow(
        "E5.14-nested", "Alice normally rises late (nested default)", "1",
        DegreeOfBelief(kb, "#(RisesLate(Alice, y) ; Day(y))[y] ~=_1 1",
                       Options()));
  }
}

void BM_NonUnarySymbolic(benchmark::State& state) {
  KnowledgeBase kb;
  kb.AddParsed(
      "#(Likes(x, y) ; Elephant(x) & Zookeeper(y))[x,y] ~=_1 1\n"
      "#(Likes(x, Fred) ; Elephant(x))[x] ~=_2 0\n"
      "Zookeeper(Fred)\nElephant(Clyde)\nZookeeper(Eric)\n");
  InferenceOptions options = Options();
  options.strategies.Remove("profile").Remove("maxent").Remove("exact");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DegreeOfBelief(kb, "Likes(Clyde, Eric)", options));
  }
}
BENCHMARK(BM_NonUnarySymbolic);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
