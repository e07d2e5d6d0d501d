// The random-worlds / maximum-entropy correspondence (Section 6): the
// concentration of the profile engine on the maxent point as N grows, and
// the wall time of maxent::Solve on the benchmark catalog's problems.  The
// paper's claims themselves (the Section 6 worked example, Example 5.29)
// are asserted by tests/maxent_test.cc and tests/fixtures_test.cc.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/maxent_engine.h"
#include "src/engines/profile_engine.h"
#include "src/logic/parser.h"
#include "src/maxent/solver.h"
#include "tests/maxent_golden.h"

namespace {

using rwl::KnowledgeBase;
using rwl::QueryContext;

void ReportTable() {
  rwl::bench::PrintHeader("Maximum entropy correspondence (Section 6)");

  // Concentration series: |Pr_N - Pr_maxent| shrinking in N (the paper's
  // e^{N·H} argument made visible).
  {
    KnowledgeBase kb;
    kb.AddParsed(
        "#(B(x) ; A(x))[x] ~= 0.6\n"
        "A(K)\n");
    auto query = rwl::logic::ParseFormula("B(K)").formula;
    auto tol = rwl::semantics::ToleranceVector::Uniform(0.03);
    rwl::engines::MaxEntEngine maxent;
    QueryContext ctx(kb.vocabulary(), kb.AsFormula(),
                     /*caching_enabled=*/false);
    // τ → 0 reference (= 0.6 by direct inference at the maxent point).
    auto limit = maxent.InferLimit(ctx, query, tol, {1.0, 0.3, 0.1, 0.03});
    std::printf(
        "\n  Concentration on the maxent point (KB: ||B|A|| ≈ 0.6, A(K); "
        "tau->0 limit %.4f):\n    %-6s %-12s %-12s\n", limit.value, "N",
        "Pr_N(B(K))", "|gap|");
    rwl::engines::ProfileEngine profile;
    for (int n : {8, 16, 32, 64, 96}) {
      auto r = profile.DegreeAt(ctx, query, n, tol);
      std::printf("    %-6d %-12.5f %-12.5f\n", n, r.probability,
                  std::fabs(r.probability - limit.value));
    }
  }
}

// Wall time of one maxent::Solve on each unary2-maxent catalog problem
// (rwbench's forced-maxent cold_solve items, at the default τ = 0.05): the
// median of 15 rounds of 20 solves.  Reported as BENCH_JSON rows, not
// gated; the iteration counts are deterministic.
void ReportSolveTimes() {
  std::printf("\n  maxent::Solve on the unary2-maxent catalog problems:\n");
  for (const auto& item : rwl::maxent_golden::MaxEntCatalogKbs()) {
    const rwl::maxent::Problem problem =
        rwl::maxent_golden::CatalogProblem(item, 1.0);
    rwl::maxent::Solution solution;
    std::vector<double> rounds;
    for (int round = 0; round < 15; ++round) {
      const auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < 20; ++rep) {
        solution = rwl::maxent::Solve(problem);
        benchmark::DoNotOptimize(solution);
      }
      const std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - start;
      rounds.push_back(elapsed.count() / 20.0);
    }
    std::nth_element(rounds.begin(), rounds.begin() + rounds.size() / 2,
                     rounds.end());
    const double us = rounds[rounds.size() / 2];
    std::printf("    %-18s %9.1f us/solve  %5d iterations (%d skipped at the "
                "fixed point)\n",
                item.name, us, solution.iterations,
                solution.fixed_point_skips);
    rwl::bench::JsonLine line("maxent");
    line.Field("id", std::string("solve_") + item.name)
        .Field("us_per_solve", us)
        .Field("iterations", solution.iterations)
        .Field("fixed_point_skips", solution.fixed_point_skips);
    line.Emit();
  }
}

void BM_MaxEntSolve(benchmark::State& state) {
  KnowledgeBase kb;
  kb.AddParsed(
      "#(Black(x) ; Bird(x))[x] ~=_1 0.2\n"
      "#(Bird(x))[x] ~=_2 0.1\n");
  rwl::engines::MaxEntEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.02);
  QueryContext ctx(kb.vocabulary(), kb.AsFormula(),
                   /*caching_enabled=*/false);
  const auto query = rwl::logic::Formula::True();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.InferAt(ctx, query, tol).atom_probabilities);
  }
}
BENCHMARK(BM_MaxEntSolve);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  ReportSolveTimes();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
