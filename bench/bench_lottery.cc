// Experiment family: the lottery paradox and unique names (Section 5.5):
// Pr(Winner(c)) = 1/K for known pool size K, → 0 qualitatively, yet
// Pr(∃ winner) = 1; Poole's partition is inconsistent; unique-names bias and
// Lifschitz's C1.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"

namespace {

using rwl::Answer;
using rwl::DegreeOfBelief;
using rwl::InferenceOptions;
using rwl::KnowledgeBase;
using rwl::QueryContext;
using rwl::logic::C;
using rwl::logic::Formula;
using rwl::logic::FormulaPtr;
using rwl::logic::P;
using rwl::logic::V;

FormulaPtr LotteryKb() {
  return Formula::AndAll({
      rwl::logic::ExistsUnique("w", P("Winner", V("w"))),
      Formula::ForAll("x", Formula::Implies(P("Winner", V("x")),
                                            P("Ticket", V("x")))),
      P("Ticket", C("Eric")),
  });
}

void ReportTable() {
  rwl::bench::PrintHeader("Lottery paradox & unique names (Section 5.5)");

  rwl::logic::Vocabulary vocab;
  vocab.AddPredicate("Winner", 1);
  vocab.AddPredicate("Ticket", 1);
  vocab.AddConstant("Eric");
  rwl::engines::ProfileEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);

  std::printf("  Known pool size K (at N = 8): Pr(Winner(Eric)) = 1/K\n");
  for (int k : {2, 3, 4}) {
    FormulaPtr kb = Formula::And(
        LotteryKb(), rwl::logic::ExactlyN(k, "t", P("Ticket", V("t"))));
    QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
    auto r = engine.DegreeAt(ctx, P("Winner", C("Eric")), 8, tol);
    char id[32], paper[32];
    std::snprintf(id, sizeof(id), "lottery-K=%d", k);
    std::snprintf(paper, sizeof(paper), "%.4f", 1.0 / k);
    rwl::bench::PrintValueRow(id, "Pr(Winner(Eric)) with K tickets", paper,
                              r.probability, "profile N=8");
  }

  std::printf("\n  Qualitative lottery: Pr(Winner(Eric)) vs N (→ 0), while "
              "Pr(∃ winner) = 1\n");
  QueryContext ctx(vocab, LotteryKb(), /*caching_enabled=*/false);
  for (int n : {8, 16, 32, 64}) {
    auto win = engine.DegreeAt(ctx, P("Winner", C("Eric")), n, tol);
    auto someone = engine.DegreeAt(
        ctx, Formula::Exists("x", P("Winner", V("x"))), n, tol);
    std::printf("    N=%-4d Pr(Winner(Eric))=%-9.5f Pr(exists winner)=%.3f\n",
                n, win.probability, someone.probability);
  }

  {
    KnowledgeBase poole;
    poole.AddParsed(
        "forall x. (Bird(x) <=> (Emu(x) | Penguin(x)))\n"
        "forall x. !(Emu(x) & Penguin(x))\n"
        "#(Emu(x) ; Bird(x))[x] ~=_1 0\n"
        "#(Penguin(x) ; Bird(x))[x] ~=_2 0\n"
        "0.2 <~_3 #(Bird(x))[x]\n");
    InferenceOptions options;
    options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.05);
    options.limit.domain_sizes = {12, 20};
    options.limit.tolerance_scales = {1.0};
    options.strategies.Remove("maxent").Remove("exact");
    rwl::bench::PrintRow("Poole-partition",
                         "all-exceptional partition of birds",
                         "inconsistent",
                         DegreeOfBelief(poole, "Bird(Tweety)", options));
  }
  {
    KnowledgeBase kb;
    kb.mutable_vocabulary().AddConstant("C1");
    kb.mutable_vocabulary().AddConstant("C2");
    InferenceOptions options;
    options.limit.domain_sizes = {16, 32, 64, 128};
    rwl::bench::PrintRow("unique-names", "Pr(C1 = C2 | true)", "0",
                         DegreeOfBelief(kb, "C1 = C2", options));
  }
  {
    KnowledgeBase kb;
    kb.AddParsed("Ray = Reiter\nDrew = McDermott\n");
    InferenceOptions options;
    options.limit.domain_sizes = {16, 32, 64, 128};
    rwl::bench::PrintRow("Lifschitz-C1", "Pr(Ray ≠ Drew)", "1",
                         DegreeOfBelief(kb, "Ray != Drew", options));
  }
}

void BM_LotteryProfile(benchmark::State& state) {
  rwl::logic::Vocabulary vocab;
  vocab.AddPredicate("Winner", 1);
  vocab.AddPredicate("Ticket", 1);
  vocab.AddConstant("Eric");
  rwl::engines::ProfileEngine engine;
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);
  FormulaPtr kb = LotteryKb();
  FormulaPtr query = P("Winner", C("Eric"));
  const int n = static_cast<int>(state.range(0));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, query, n, tol));
  }
}
BENCHMARK(BM_LotteryProfile)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
