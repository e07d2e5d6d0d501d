// Experiment family: random worlds vs reference-class baselines (Section 2).
// Regenerates the failure modes the paper catalogs — the baselines answer on
// single-class KBs but go vacuous on incomparable competing classes, where
// random worlds still commits — plus a randomized sweep counting how often
// each system produces an informative answer.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "bench/bench_util.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/logic/parser.h"
#include "src/logic/printer.h"
#include "src/refclass/reference_class.h"
#include "src/workload/generators.h"

namespace {

using rwl::Answer;
using rwl::DegreeOfBelief;
using rwl::InferenceOptions;
using rwl::KnowledgeBase;
using rwl::refclass::Infer;
using rwl::refclass::Policy;
using rwl::refclass::RefClassAnswer;

InferenceOptions Options() {
  InferenceOptions options;
  options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.04);
  options.limit.domain_sizes = {16, 32};
  options.limit.tolerance_scales = {1.0, 0.5};
  return options;
}

std::string RefToString(const RefClassAnswer& a) {
  char buf[64];
  switch (a.status) {
    case RefClassAnswer::Status::kInterval:
      std::snprintf(buf, sizeof(buf), "[%.3f, %.3f]", a.lo, a.hi);
      return buf;
    case RefClassAnswer::Status::kVacuous:
      return "[0, 1] (vacuous)";
    case RefClassAnswer::Status::kNoClass:
      return "no class";
  }
  return "?";
}

void ReportTable() {
  rwl::bench::PrintHeader(
      "Random worlds vs reference-class baselines (Section 2)");

  struct Case {
    const char* id;
    const char* kb_text;
    const char* query;
    const char* paper;
  };
  std::vector<Case> cases = {
      {"hepatitis",
       "Jaun(Eric)\n#(Hep(x) ; Jaun(x))[x] ~= 0.8\n", "Hep(Eric)",
       "all agree: 0.8"},
      {"heart-disease",
       "#(Heart(x) ; Chol(x))[x] ~=_1 0.15\n"
       "#(Heart(x) ; Smoker(x))[x] ~=_2 0.09\n"
       "Chol(Fred)\nSmoker(Fred)\n",
       "Heart(Fred)", "baselines [0,1]; rwl answers below both marginals"},
      {"nixon",
       "#(Pacifist(x) ; Quaker(x))[x] ~=_1 0.8\n"
       "#(Pacifist(x) ; Republican(x))[x] ~=_2 0.8\n"
       "Quaker(Nixon)\nRepublican(Nixon)\n"
       "exists! x. (Quaker(x) & Republican(x))\n",
       "Pacifist(Nixon)", "baselines [0,1]; rwl 0.941"},
  };

  for (const auto& c : cases) {
    KnowledgeBase kb;
    kb.AddParsed(c.kb_text);
    auto query = rwl::logic::ParseFormula(c.query).formula;
    RefClassAnswer reich = Infer(kb.AsFormula(), query,
                                 Policy::kReichenbach);
    RefClassAnswer kyburg = Infer(kb.AsFormula(), query,
                                  Policy::kKyburgStrength);
    Answer rw = DegreeOfBelief(kb, query, Options());
    std::printf("  [%-14s] reichenbach=%-18s kyburg=%-18s rwl=%-18s (%s)\n",
                c.id, RefToString(reich).c_str(), RefToString(kyburg).c_str(),
                rwl::bench::AnswerToString(rw).c_str(), c.paper);
  }

  // Randomized sweep: count informative answers on two-competing-class KBs.
  std::printf(
      "\n  Random two-class KBs (100 draws): informative answers per "
      "system\n");
  std::mt19937 rng(555);
  std::uniform_real_distribution<double> value(0.1, 0.9);
  int reich_informative = 0, rwl_informative = 0;
  for (int i = 0; i < 100; ++i) {
    char text[512];
    std::snprintf(text, sizeof(text),
                  "#(T(x) ; A(x))[x] ~=_1 %.3f\n"
                  "#(T(x) ; B(x))[x] ~=_2 %.3f\n"
                  "A(K)\nB(K)\n"
                  "exists! x. (A(x) & B(x))\n",
                  value(rng), value(rng));
    KnowledgeBase kb;
    kb.AddParsed(text);
    auto query = rwl::logic::ParseFormula("T(K)").formula;
    RefClassAnswer reich = Infer(kb.AsFormula(), query,
                                 Policy::kReichenbach);
    if (reich.status == RefClassAnswer::Status::kInterval) {
      ++reich_informative;
    }
    InferenceOptions fast = Options();
    fast.strategies.Remove("profile").Remove("maxent").Remove("exact");
    Answer rw = DegreeOfBelief(kb, query, fast);
    if (rw.status == Answer::Status::kPoint) ++rwl_informative;
  }
  std::printf("    reichenbach: %d/100   random-worlds: %d/100   "
              "(paper: baselines give up on all competing-class cases)\n",
              reich_informative, rwl_informative);
}

void BM_ReferenceClassAnalysis(benchmark::State& state) {
  KnowledgeBase kb;
  kb.AddParsed(
      "#(Fly(x) ; Bird(x))[x] ~=_1 0.9\n"
      "#(Fly(x) ; Penguin(x))[x] ~=_2 0\n"
      "forall x. (Penguin(x) => Bird(x))\n"
      "Penguin(Tweety)\n");
  auto query = rwl::logic::ParseFormula("Fly(Tweety)").formula;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Infer(kb.AsFormula(), query, Policy::kKyburgStrength));
  }
}
BENCHMARK(BM_ReferenceClassAnalysis);

}  // namespace

int main(int argc, char** argv) {
  ReportTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
