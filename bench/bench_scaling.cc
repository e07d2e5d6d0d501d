// Experiment family: engine scaling — runtime of the exact, profile,
// maximum-entropy and symbolic engines as domain size and vocabulary grow.
// The paper's Section 7.4 complexity discussion in numbers: enumeration is
// doubly exponential, profiles polynomial-ish in N for fixed k, maxent and
// the symbolic rules essentially constant.
#include <benchmark/benchmark.h>

#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/exact_engine.h"
#include "src/engines/maxent_engine.h"
#include "src/engines/profile_engine.h"
#include "src/engines/symbolic_engine.h"
#include "src/logic/builder.h"
#include "src/logic/parser.h"
#include "src/workload/generators.h"

namespace {

using rwl::KnowledgeBase;
using rwl::QueryContext;
using rwl::logic::FormulaPtr;

struct Fixture {
  rwl::logic::Vocabulary vocab;
  FormulaPtr kb;
  FormulaPtr query;
};

Fixture MakeFixture(int num_predicates) {
  Fixture f;
  KnowledgeBase kb;
  std::string text = "#(T(x) ; C0(x))[x] ~= 0.7\nC0(K)\n";
  kb.AddParsed(text);
  for (int i = 1; i < num_predicates; ++i) {
    kb.mutable_vocabulary().AddPredicate("C" + std::to_string(i), 1);
  }
  f.vocab = kb.vocabulary();
  f.kb = kb.AsFormula();
  f.query = rwl::logic::ParseFormula("T(K)").formula;
  return f;
}

void BM_ExactVsN(benchmark::State& state) {
  Fixture f = MakeFixture(1);
  rwl::engines::ExactEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  const int n = static_cast<int>(state.range(0));
  QueryContext ctx(f.vocab, f.kb, /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, f.query, n, tol));
  }
}
BENCHMARK(BM_ExactVsN)->DenseRange(3, 8, 1);

void BM_ProfileVsN(benchmark::State& state) {
  Fixture f = MakeFixture(1);
  rwl::engines::ProfileEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);
  const int n = static_cast<int>(state.range(0));
  QueryContext ctx(f.vocab, f.kb, /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, f.query, n, tol));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ProfileVsN)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_ProfileVsPredicates(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  rwl::engines::ProfileEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);
  QueryContext ctx(f.vocab, f.kb, /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, f.query, 24, tol));
  }
}
BENCHMARK(BM_ProfileVsPredicates)->DenseRange(2, 4, 1);

void BM_MaxEntVsPredicates(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  rwl::engines::MaxEntEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.02);
  QueryContext ctx(f.vocab, f.kb, /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.InferAt(ctx, f.query, tol));
  }
}
BENCHMARK(BM_MaxEntVsPredicates)->DenseRange(2, 6, 1);

void BM_SymbolicVsKbSize(benchmark::State& state) {
  // Symbolic matching cost as the KB accumulates irrelevant statistics.
  KnowledgeBase kb;
  kb.AddParsed("#(T(x) ; C0(x))[x] ~= 0.7\nC0(K)\n");
  for (int i = 1; i < state.range(0); ++i) {
    std::string extra = "#(Q" + std::to_string(i) + "(x) ; C0(x))[x] ~=_" +
                        std::to_string(i + 1) + " 0.5";
    kb.AddParsed(extra);
  }
  rwl::engines::SymbolicEngine engine;
  FormulaPtr query = rwl::logic::ParseFormula("T(K)").formula;
  FormulaPtr kb_formula = kb.AsFormula();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Infer(kb_formula, query));
  }
}
BENCHMARK(BM_SymbolicVsKbSize)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
