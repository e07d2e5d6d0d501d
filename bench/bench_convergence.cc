// Experiment family: the convergence "figure" — Pr_N^τ as a function of N
// for shrinking τ, approaching Pr_∞ (Definition 4.3).  This is the series
// view behind every sweep in the library; the paper's limits are the
// horizontal asymptotes.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/logic/parser.h"

namespace {

using rwl::KnowledgeBase;
using rwl::QueryContext;

void Series(const char* title, const char* kb_text, const char* query_text,
            double limit) {
  KnowledgeBase kb;
  kb.AddParsed(kb_text);
  auto query = rwl::logic::ParseFormula(query_text).formula;
  kb.RegisterQuerySymbols(query);
  rwl::engines::ProfileEngine engine;
  std::printf("\n  %s (Pr_inf = %.4f)\n  %-8s", title, limit, "N\\tau");
  const double taus[] = {0.08, 0.04, 0.02};
  for (double tau : taus) std::printf(" %-10.3f", tau);
  std::printf("\n");
  QueryContext ctx(kb.vocabulary(), kb.AsFormula(),
                   /*caching_enabled=*/false);
  for (int n : {8, 16, 24, 32, 48, 64}) {
    std::printf("  %-8d", n);
    for (double tau : taus) {
      auto tol = rwl::semantics::ToleranceVector::Uniform(tau);
      auto r = engine.DegreeAt(ctx, query, n, tol);
      if (r.well_defined) {
        std::printf(" %-10.5f", r.probability);
      } else {
        std::printf(" %-10s", "undef");
      }
    }
    std::printf("\n");
  }
}

void ReportTable() {
  rwl::bench::PrintHeader("Convergence of Pr_N^tau to Pr_inf (Def. 4.3)");
  Series("Direct inference (E5.8): Pr(Hep(Eric))",
         "Jaun(Eric)\n#(Hep(x) ; Jaun(x))[x] ~= 0.8\n", "Hep(Eric)", 0.8);
  Series("Default (E5.10 core): Pr(Fly(Tweety)) for a bird",
         "#(Fly(x) ; Bird(x))[x] ~= 1\nBird(Tweety)\n", "Fly(Tweety)", 1.0);
  Series("Maxent pull (E5.29): Pr(Black(Clyde))",
         "#(Black(x) ; Bird(x))[x] ~=_1 0.2\n#(Bird(x))[x] ~=_2 0.1\n",
         "Black(Clyde)", 0.47);
}

void BM_ProfileSweepCost(benchmark::State& state) {
  KnowledgeBase kb;
  kb.AddParsed("Jaun(Eric)\n#(Hep(x) ; Jaun(x))[x] ~= 0.8\n");
  auto query = rwl::logic::ParseFormula("Hep(Eric)").formula;
  rwl::engines::ProfileEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.04);
  const int n = static_cast<int>(state.range(0));
  QueryContext ctx(kb.vocabulary(), kb.AsFormula(),
                   /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, query, n, tol));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ProfileSweepCost)->RangeMultiplier(2)->Range(8, 128)
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
