// Experiment family: Theorem 5.3 (KLM core properties of |∼rw) and the
// broken-arm disjunction example (Example 5.4).  The properties are
// verified numerically at finite N over random KBs, reporting the number of
// applicable instances and violations (paper: zero violations).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "bench/bench_util.h"
#include "src/core/query_context.h"
#include "src/defaults/klm.h"
#include "src/engines/profile_engine.h"
#include "src/logic/builder.h"
#include "src/workload/generators.h"

namespace {

using rwl::QueryContext;
using rwl::logic::C;
using rwl::logic::Formula;
using rwl::logic::FormulaPtr;
using rwl::logic::P;
using rwl::logic::V;

void ReportTable() {
  rwl::bench::PrintHeader("KLM properties of |~rw (Theorem 5.3)");

  rwl::logic::Vocabulary vocab;
  for (const auto& name : rwl::workload::GeneratorPredicates(2)) {
    vocab.AddPredicate(name, 1);
  }
  for (const auto& name : rwl::workload::GeneratorConstants(2)) {
    vocab.AddConstant(name);
  }
  rwl::engines::ProfileEngine engine;
  rwl::defaults::KlmContext ctx;
  ctx.engine = &engine;
  ctx.vocabulary = &vocab;
  ctx.domain_size = 6;
  ctx.tolerances = rwl::semantics::ToleranceVector::Uniform(0.2);

  struct Tally {
    const char* name;
    int applicable = 0;
    int violations = 0;
  };
  Tally tallies[] = {{"And"},   {"Or"},          {"Cut"},
                     {"CM"},    {"RightWeaken"}, {"Reflexivity"},
                     {"Conditioning"}};

  std::mt19937 rng(4242);
  rwl::workload::UnaryKbParams params;
  params.num_predicates = 2;
  params.num_constants = 2;
  params.num_statements = 1;
  params.num_facts = 1;
  for (int trial = 0; trial < 300; ++trial) {
    FormulaPtr kb = rwl::workload::RandomUnaryKb(params, &rng);
    FormulaPtr kb2 = rwl::workload::RandomUnaryKb(params, &rng);
    FormulaPtr phi = rwl::workload::RandomQuery(params, &rng);
    FormulaPtr psi = rwl::workload::RandomQuery(params, &rng);
    FormulaPtr theta = rwl::workload::RandomQuery(params, &rng);
    rwl::defaults::KlmCheck checks[] = {
        rwl::defaults::CheckAnd(ctx, kb, phi, psi),
        rwl::defaults::CheckOr(ctx, kb, kb2, phi),
        rwl::defaults::CheckCut(ctx, kb, theta, phi),
        rwl::defaults::CheckCautiousMonotonicity(ctx, kb, theta, phi),
        rwl::defaults::CheckRightWeakeningMonotone(ctx, kb, phi, psi),
        rwl::defaults::CheckReflexivity(ctx, kb),
        rwl::defaults::CheckConditioningIdentity(ctx, kb, theta, phi),
    };
    for (int i = 0; i < 7; ++i) {
      if (!checks[i].applicable) continue;
      ++tallies[i].applicable;
      if (!checks[i].holds) ++tallies[i].violations;
    }
  }
  std::printf("  %-14s %-12s %-10s (300 random KBs at N=6)\n", "property",
              "applicable", "violations");
  for (const auto& tally : tallies) {
    std::printf("  %-14s %-12d %-10d paper: 0 violations\n", tally.name,
                tally.applicable, tally.violations);
  }

  // Example 5.4 (broken arm): exactly one usable arm, but no verdict which.
  rwl::logic::Vocabulary arm_vocab;
  for (const char* p :
       {"LeftUsable", "LeftBroken", "RightUsable", "RightBroken"}) {
    arm_vocab.AddPredicate(p, 1);
  }
  arm_vocab.AddConstant("Eric");
  rwl::logic::TermPtr x = V("x");
  FormulaPtr kb_arm = Formula::AndAll({
      rwl::logic::Default(Formula::True(), P("LeftUsable", x), {"x"}, 1),
      rwl::logic::ApproxEq(
          rwl::logic::CondProp(P("LeftUsable", x), P("LeftBroken", x), {"x"}),
          0.0, 2),
      rwl::logic::Default(Formula::True(), P("RightUsable", x), {"x"}, 3),
      rwl::logic::ApproxEq(rwl::logic::CondProp(P("RightUsable", x),
                                                P("RightBroken", x), {"x"}),
                           0.0, 4),
      Formula::Or(P("LeftBroken", C("Eric")), P("RightBroken", C("Eric"))),
  });
  auto tol = rwl::semantics::ToleranceVector::Uniform(0.04);
  FormulaPtr left = P("LeftUsable", C("Eric"));
  FormulaPtr right = P("RightUsable", C("Eric"));
  FormulaPtr exactly_one = Formula::And(
      Formula::Or(left, right), Formula::Not(Formula::And(left, right)));
  QueryContext cache_free(arm_vocab, kb_arm, /*caching_enabled=*/false);
  auto one = engine.DegreeAt(cache_free, exactly_one, 40, tol);
  auto left_pr = engine.DegreeAt(cache_free, left, 40, tol);
  rwl::bench::PrintValueRow("E5.4-xor", "exactly one usable arm", "→ 1",
                            one.probability, "profile N=40");
  rwl::bench::PrintValueRow("E5.4-left", "but which one is open", "1/2",
                            left_pr.probability, "profile N=40");
}

void BM_KlmCheckSuite(benchmark::State& state) {
  rwl::logic::Vocabulary vocab;
  for (const auto& name : rwl::workload::GeneratorPredicates(2)) {
    vocab.AddPredicate(name, 1);
  }
  vocab.AddConstant("K0");
  rwl::engines::ProfileEngine engine;
  rwl::defaults::KlmContext ctx;
  ctx.engine = &engine;
  ctx.vocabulary = &vocab;
  ctx.domain_size = 6;
  ctx.tolerances = rwl::semantics::ToleranceVector::Uniform(0.2);
  FormulaPtr kb = rwl::logic::ApproxEq(
      rwl::logic::Prop(P("P0", V("x")), {"x"}), 0.5, 1);
  FormulaPtr phi = P("P0", C("K0"));
  FormulaPtr psi = P("P1", C("K0"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rwl::defaults::CheckAnd(ctx, kb, phi, psi));
  }
}
BENCHMARK(BM_KlmCheckSuite);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
