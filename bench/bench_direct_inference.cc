// Experiment family: direct inference (Examples 5.8, 5.11, 5.18).
//
// Regenerates the hepatitis numbers: the "right" reference class is used,
// other statistics, other individuals and spurious disjunctive classes are
// ignored.  Includes google-benchmark timings of the three engines on the
// core query.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/exact_engine.h"
#include "src/engines/profile_engine.h"
#include "src/logic/parser.h"

namespace {

using rwl::Answer;
using rwl::DegreeOfBelief;
using rwl::InferenceOptions;
using rwl::KnowledgeBase;
using rwl::QueryContext;

InferenceOptions Options() {
  InferenceOptions options;
  options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.04);
  options.limit.domain_sizes = {16, 32, 48};
  options.limit.tolerance_scales = {1.0, 0.5};
  return options;
}

KnowledgeBase HepKb(bool with_extras) {
  KnowledgeBase kb;
  std::string text =
      "Jaun(Eric)\n"
      "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n";
  if (with_extras) {
    text +=
        "#(Hep(x))[x] <~_2 0.05\n"
        "#(Hep(x) ; Jaun(x) & Fever(x))[x] ~=_3 1\n";
  }
  kb.AddParsed(text);
  return kb;
}

void ReportTable() {
  rwl::bench::PrintHeader(
      "Direct inference (Examples 5.8 / 5.11 / 5.18)");

  {
    KnowledgeBase kb = HepKb(false);
    rwl::bench::PrintRow("E5.8-core", "Pr(Hep(Eric) | jaundice stats)",
                         "0.8", DegreeOfBelief(kb, "Hep(Eric)", Options()));
  }
  {
    KnowledgeBase kb = HepKb(true);
    rwl::bench::PrintRow("E5.8-extras",
                         "extra class statistics ignored", "0.8",
                         DegreeOfBelief(kb, "Hep(Eric)", Options()));
  }
  {
    KnowledgeBase kb = HepKb(false);
    kb.AddParsed("Hep(Tom)");
    rwl::bench::PrintRow("E5.8-Tom", "other individuals ignored", "0.8",
                         DegreeOfBelief(kb, "Hep(Eric)", Options()));
  }
  {
    // E5.11: numeric path only; the spurious disjunctive class cannot shift
    // the answer because its statistics hold in almost all worlds.
    KnowledgeBase kb = HepKb(false);
    InferenceOptions numeric = Options();
    numeric.strategies.Remove("symbolic");
    numeric.limit.domain_sizes = {24, 48};
    rwl::bench::PrintRow("E5.11-numeric",
                         "profile engine, spurious class immaterial", "0.8",
                         DegreeOfBelief(kb, "Hep(Eric)", numeric));
  }
  {
    KnowledgeBase kb = HepKb(false);
    kb.AddParsed("Fever(Eric)\nTall(Eric)");
    rwl::bench::PrintRow("E5.18-irrelevant",
                         "Fever/Tall facts ignored (Thm 5.16)", "0.8",
                         DegreeOfBelief(kb, "Hep(Eric)", Options()));
  }
  {
    KnowledgeBase kb = HepKb(true);
    kb.AddParsed("Fever(Eric)\nTall(Eric)");
    rwl::bench::PrintRow("E5.18-specific",
                         "Jaun∧Fever class takes over", "1.0",
                         DegreeOfBelief(kb, "Hep(Eric)", Options()));
  }
}

void BM_SymbolicDirectInference(benchmark::State& state) {
  KnowledgeBase kb = HepKb(true);
  InferenceOptions options = Options();
  options.strategies.Remove("profile").Remove("maxent").Remove("exact");
  for (auto _ : state) {
    benchmark::DoNotOptimize(DegreeOfBelief(kb, "Hep(Eric)", options));
  }
}
BENCHMARK(BM_SymbolicDirectInference);

void BM_ProfileDirectInference(benchmark::State& state) {
  KnowledgeBase kb = HepKb(false);
  rwl::engines::ProfileEngine engine;
  auto query = rwl::logic::ParseFormula("Hep(Eric)").formula;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);
  const int n = static_cast<int>(state.range(0));
  QueryContext ctx(kb.vocabulary(), kb.AsFormula(),
                   /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, query, n, tol));
  }
}
BENCHMARK(BM_ProfileDirectInference)->Arg(16)->Arg(32)->Arg(64);

void BM_ExactDirectInference(benchmark::State& state) {
  // The definitional enumeration on the hepatitis KB at exact-engine
  // reachable N: the world loop is the compiled-VM + sharding hot path.
  KnowledgeBase kb = HepKb(false);
  rwl::engines::ExactEngine engine;
  auto query = rwl::logic::ParseFormula("Hep(Eric)").formula;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.1);
  const int n = static_cast<int>(state.range(0));
  QueryContext ctx(kb.vocabulary(), kb.AsFormula(),
                   /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, query, n, tol));
  }
}
BENCHMARK(BM_ExactDirectInference)->DenseRange(4, 8, 2);

void BM_MaxEntDirectInference(benchmark::State& state) {
  KnowledgeBase kb = HepKb(false);
  InferenceOptions options = Options();
  options.strategies.Remove("symbolic").Remove("profile").Remove("exact");
  for (auto _ : state) {
    benchmark::DoNotOptimize(DegreeOfBelief(kb, "Hep(Eric)", options));
  }
}
BENCHMARK(BM_MaxEntDirectInference);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
