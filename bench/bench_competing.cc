// Experiment family: competing reference classes (Section 5.3) — the
// strength rule (Theorem 5.23 / Example 5.24), too-specific vs too-general
// information (Example 5.25), and the Nixon diamond sweep over (α, β)
// (Theorem 5.26), including the footnote-14 Republican-banker case.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/evidence/dempster.h"

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

KnowledgeBase NixonKb(double alpha, double beta, bool same_tolerance) {
  KnowledgeBase kb;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "#(Pacifist(x) ; Quaker(x))[x] ~=_1 %g\n"
                "#(Pacifist(x) ; Republican(x))[x] ~=_%d %g\n"
                "Quaker(Nixon)\n"
                "Republican(Nixon)\n"
                "exists! x. (Quaker(x) & Republican(x))\n",
                alpha, same_tolerance ? 1 : 2, beta);
  kb.AddParsed(buf);
  return kb;
}

void ReportTable() {
  rwl::bench::PrintHeader("Competing reference classes (Section 5.3)");

  {
    KnowledgeBase kb;
    kb.AddParsed(
        "(0.7 <~_1 #(Chirps(x) ; Bird(x))[x]) & "
        "(#(Chirps(x) ; Bird(x))[x] <~_2 0.8)\n"
        "(0 <~_3 #(Chirps(x) ; Magpie(x))[x]) & "
        "(#(Chirps(x) ; Magpie(x))[x] <~_4 0.99)\n"
        "forall x. (Magpie(x) => Bird(x))\n"
        "Magpie(Tweety)\n");
    InferenceOptions symbolic = Options();
    symbolic.strategies.Remove("profile").Remove("maxent").Remove("exact");
    rwl::bench::PrintRow("E5.24-strength",
                         "tighter bird interval beats magpies",
                         "[0.7, 0.8]",
                         DegreeOfBelief(kb, "Chirps(Tweety)", symbolic));
    InferenceOptions numeric = Options();
    numeric.strategies.Remove("symbolic");
    numeric.limit.domain_sizes = {16, 24};
    numeric.limit.tolerance_scales = {1.0};
    rwl::bench::PrintRow("E5.24-numeric",
                         "numeric estimate falls inside the interval",
                         "in [0.7, 0.8]",
                         DegreeOfBelief(kb, "Chirps(Tweety)", numeric));
  }
  {
    // Example 5.25: moody magpies pull the answer below 0.9.
    KnowledgeBase kb;
    kb.AddParsed(
        "#(Chirps(x) ; Bird(x))[x] ~=_1 0.9\n"
        "#(Chirps(x) ; Magpie(x) & Moody(x))[x] ~=_2 0.2\n"
        "forall x. (Magpie(x) => Bird(x))\n"
        "Magpie(Tweety)\n");
    InferenceOptions numeric = Options();
    numeric.strategies.Remove("symbolic");
    numeric.limit.domain_sizes = {10, 12};
    numeric.limit.tolerance_scales = {1.0};
    rwl::bench::PrintRow("E5.25-moody",
                         "moody-magpie stats not ignored", "< 0.9",
                         DegreeOfBelief(kb, "Chirps(Tweety)", numeric));
  }

  std::printf(
      "\n  Nixon diamond sweep (Theorem 5.26): measured vs "
      "δ(α,β)=αβ/(αβ+(1-α)(1-β))\n");
  for (double alpha : {0.8, 0.7, 0.6}) {
    for (double beta : {0.8, 0.5, 0.3}) {
      KnowledgeBase kb = NixonKb(alpha, beta, false);
      Answer answer = DegreeOfBelief(kb, "Pacifist(Nixon)", Options());
      double expected = rwl::evidence::DempsterCombine({alpha, beta});
      char id[64], what[96], paper[32];
      std::snprintf(id, sizeof(id), "T5.26 a=%.1f b=%.1f", alpha, beta);
      std::snprintf(what, sizeof(what), "Nixon diamond combination");
      std::snprintf(paper, sizeof(paper), "%.4f", expected);
      rwl::bench::PrintRow(id, what, paper, answer);
    }
  }
  {
    rwl::bench::PrintRow("T5.26-conflict",
                         "α=1, β=0, independent tolerances", "no limit",
                         DegreeOfBelief(NixonKb(1.0, 0.0, false),
                                        "Pacifist(Nixon)", Options()));
    rwl::bench::PrintRow("T5.26-equal",
                         "α=1, β=0, equal strength (same ≈₁)", "0.5",
                         DegreeOfBelief(NixonKb(1.0, 0.0, true),
                                        "Pacifist(Nixon)", Options()));
  }
  {
    // Footnote 14: 20% of Republicans and 20% of bankers are pacifists;
    // random worlds combines the two pieces of negative evidence to a value
    // BELOW 0.2, where Kyburg's strength rule would say exactly 0.2.
    KnowledgeBase kb = NixonKb(0.2, 0.2, false);
    Answer answer = DegreeOfBelief(kb, "Pacifist(Nixon)", Options());
    rwl::bench::PrintRow("fn14-reinforce",
                         "two 0.2 classes reinforce downward",
                         "< 0.2 (δ=0.059)", answer);
  }
}

void BM_NixonSymbolic(benchmark::State& state) {
  KnowledgeBase kb = NixonKb(0.8, 0.8, false);
  InferenceOptions options = Options();
  options.strategies.Remove("profile").Remove("maxent").Remove("exact");
  for (auto _ : state) {
    benchmark::DoNotOptimize(DegreeOfBelief(kb, "Pacifist(Nixon)", options));
  }
}
BENCHMARK(BM_NixonSymbolic);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
