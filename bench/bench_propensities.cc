// Ablation: the random-worlds prior vs the random-propensities prior
// (Section 7.3 / BGHK92) on the learning scenarios the paper uses to
// motivate (and criticize) each.  DESIGN.md lists this as the "learning"
// ablation called out in the limitations discussion.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/query_context.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"

namespace {

using rwl::QueryContext;
using rwl::logic::C;
using rwl::logic::CondProp;
using rwl::logic::Formula;
using rwl::logic::FormulaPtr;
using rwl::logic::P;
using rwl::logic::Prop;
using rwl::logic::V;

rwl::engines::ProfileEngine Uniform() { return rwl::engines::ProfileEngine(); }

rwl::engines::ProfileEngine Propensities() {
  rwl::engines::ProfileEngine::Options options;
  options.prior = rwl::engines::Prior::kRandomPropensities;
  return rwl::engines::ProfileEngine(options);
}

void Row(const char* id, const char* what, const char* paper,
         const rwl::logic::Vocabulary& vocab, const FormulaPtr& kb,
         const FormulaPtr& query, int n) {
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);
  auto uniform_engine = Uniform();
  auto prop_engine = Propensities();
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  auto rw = uniform_engine.DegreeAt(ctx, query, n, tol);
  auto rp = prop_engine.DegreeAt(ctx, query, n, tol);
  std::printf(
      "  [%-16s] %-42s rand-worlds=%-8.4f propensities=%-8.4f (%s)\n", id,
      what, rw.probability, rp.probability, paper);
}

void ReportTable() {
  rwl::bench::PrintHeader(
      "Prior ablation: random worlds vs random propensities (Section 7.3)");

  {
    // Learning from a sample: 90% of sampled birds fly.
    rwl::logic::Vocabulary vocab;
    vocab.AddPredicate("Fly", 1);
    vocab.AddPredicate("Bird", 1);
    vocab.AddPredicate("S", 1);
    vocab.AddConstant("Tweety");
    FormulaPtr kb = Formula::AndAll({
        rwl::logic::ApproxEq(
            CondProp(P("Fly", V("x")),
                     Formula::And(P("Bird", V("x")), P("S", V("x"))), {"x"}),
            0.9, 1),
        rwl::logic::ApproxGeq(
            Prop(Formula::And(P("Bird", V("x")), P("S", V("x"))), {"x"}),
            0.2, 2),
        P("Bird", C("Tweety")),
        Formula::Not(P("S", C("Tweety"))),
    });
    Row("sampling", "Pr(Fly) for an unsampled bird",
        "rw stays 1/2; propensities learn 0.9", vocab, kb,
        P("Fly", C("Tweety")), 24);
  }
  {
    // Overlearning from a universal.
    rwl::logic::Vocabulary vocab;
    vocab.AddPredicate("Tall", 1);
    vocab.AddPredicate("Giraffe", 1);
    vocab.AddConstant("Rock");
    FormulaPtr kb = Formula::AndAll({
        Formula::ForAll("x", Formula::Implies(P("Giraffe", V("x")),
                                              P("Tall", V("x")))),
        rwl::logic::ApproxGeq(Prop(P("Giraffe", V("x")), {"x"}), 0.3, 1),
        Formula::Not(P("Giraffe", C("Rock"))),
    });
    Row("overlearning", "Pr(Tall) for a known non-giraffe",
        "propensities overlearn (> 1/2)", vocab, kb, P("Tall", C("Rock")),
        20);
  }
  {
    // Direct inference is prior-robust.
    rwl::logic::Vocabulary vocab;
    vocab.AddPredicate("Hep", 1);
    vocab.AddPredicate("Jaun", 1);
    vocab.AddConstant("Eric");
    FormulaPtr kb = Formula::And(
        P("Jaun", C("Eric")),
        rwl::logic::ApproxEq(
            CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}), 0.8, 1));
    Row("direct-inf", "Pr(Hep(Eric)) under both priors", "0.8 under both",
        vocab, kb, P("Hep", C("Eric")), 48);
  }
}

void BM_PropensitiesEngine(benchmark::State& state) {
  rwl::logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddPredicate("B", 1);
  vocab.AddConstant("K");
  FormulaPtr kb = Formula::And(
      rwl::logic::ApproxEq(CondProp(P("B", V("x")), P("A", V("x")), {"x"}),
                           0.7, 1),
      P("A", C("K")));
  FormulaPtr query = P("B", C("K"));
  auto engine = Propensities();
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.05);
  const int n = static_cast<int>(state.range(0));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.DegreeAt(ctx, query, n, tol));
  }
}
BENCHMARK(BM_PropensitiesEngine)->Arg(16)->Arg(48);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
