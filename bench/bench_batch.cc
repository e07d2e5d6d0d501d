// Batch-inference benchmark: one DegreesOfBelief call vs. N sequential
// DegreeOfBelief calls on the paper fixture KBs.
//
// The batch path shares a QueryContext, so the expensive per-(N, τ)
// world enumerations (profile DFS, exact odometer) and the KB analyses run
// once and every further query replays them.  The acceptance bar for the
// refactor is ≥ 2× on a 16-query batch; the JSON lines feed BENCH_*.json.
//
// Also measured: the EstimateLimit worker pool (serial vs. pooled sweep of
// the (N, τ) grid) — on multi-core machines the grid points overlap; the
// answers are identical by construction.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/fixtures/paper_kbs.h"
#include "src/logic/parser.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct BatchCase {
  std::string id;
  std::string kb;
  std::vector<std::string> queries;
};

// 16 distinct queries per fixture, exercising the numeric sweep path.
std::vector<BatchCase> BuildCases() {
  std::vector<BatchCase> cases;
  {
    BatchCase c;
    c.id = "E5.10-specificity";
    c.kb = rwl::fixtures::ExampleById("E5.10").kb;
    c.queries = {
        "Fly(Tweety)",         "!Fly(Tweety)",
        "Bird(Tweety)",        "Penguin(Tweety)",
        "Fly(Tweety) & Bird(Tweety)",
        "Fly(Tweety) | Penguin(Tweety)",
        "Bird(Tweety) & !Fly(Tweety)",
        "Penguin(Tweety) => Bird(Tweety)",
        "#(Fly(x) ; Bird(x))[x] ~= 1",
        "#(Fly(x) ; Penguin(x))[x] ~= 0",
        "Fly(Tweety) & Penguin(Tweety)",
        "!Bird(Tweety)",
        "Bird(Tweety) | Penguin(Tweety)",
        "!Penguin(Tweety)",
        "Fly(Tweety) => Bird(Tweety)",
        "Bird(Tweety) & Penguin(Tweety)",
    };
    cases.push_back(std::move(c));
  }
  {
    BatchCase c;
    c.id = "E5.8b-chart";
    c.kb = rwl::fixtures::ExampleById("E5.8b").kb;
    c.queries = {
        "Hep(Eric)",          "!Hep(Eric)",
        "Jaun(Eric)",         "Fever(Eric)",
        "Hep(Eric) & Jaun(Eric)",
        "Hep(Eric) | Fever(Eric)",
        "Jaun(Eric) & !Hep(Eric)",
        "Fever(Eric) => Hep(Eric)",
        "Hep(Eric) & Fever(Eric)",
        "!Fever(Eric)",
        "Hep(Eric) => Jaun(Eric)",
        "Jaun(Eric) | Fever(Eric)",
        "!Jaun(Eric)",
        "Hep(Eric) & !Fever(Eric)",
        "Jaun(Eric) & Fever(Eric)",
        "Hep(Eric) | Jaun(Eric)",
    };
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace

int main() {
  rwl::bench::PrintHeader("batch inference: shared QueryContext vs. "
                          "sequential calls");

  // Numeric-only options so every query pays the sweep (the symbolic
  // engine would answer several fixtures in closed form).
  rwl::InferenceOptions options;
  options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.05);
  options.strategies.Remove("symbolic").Remove("maxent");
  options.limit.domain_sizes = {8, 16, 24, 32};

  for (const auto& bench_case : BuildCases()) {
    rwl::KnowledgeBase kb;
    std::string error;
    if (!kb.AddParsed(bench_case.kb, &error)) {
      std::fprintf(stderr, "bench_batch: KB parse error in %s: %s\n",
                   bench_case.id.c_str(), error.c_str());
      return 1;
    }
    std::vector<rwl::logic::FormulaPtr> queries;
    for (const auto& text : bench_case.queries) {
      rwl::logic::ParseResult parsed = rwl::logic::ParseFormula(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bench_batch: query parse error '%s': %s\n",
                     text.c_str(), parsed.error.c_str());
        return 1;
      }
      queries.push_back(parsed.formula);
    }

    // Sequential: one fresh context per query (what callers did before the
    // batch API existed).
    Clock::time_point t0 = Clock::now();
    std::vector<rwl::Answer> sequential;
    for (const auto& query : queries) {
      sequential.push_back(rwl::DegreeOfBelief(kb, query, options));
    }
    Clock::time_point t1 = Clock::now();

    // Batch: one shared context.
    std::vector<rwl::Answer> batch =
        rwl::DegreesOfBelief(kb, queries, options);
    Clock::time_point t2 = Clock::now();

    // The two must agree bit for bit.
    int mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (sequential[i].status != batch[i].status ||
          sequential[i].value != batch[i].value ||
          sequential[i].lo != batch[i].lo ||
          sequential[i].hi != batch[i].hi) {
        ++mismatches;
      }
    }

    double sequential_s = Seconds(t0, t1);
    double batch_s = Seconds(t1, t2);
    double speedup = batch_s > 0 ? sequential_s / batch_s : 0.0;
    std::printf(
        "  [%-18s] %2zu queries  sequential=%.3fs  batch=%.3fs  "
        "speedup=%.2fx  mismatches=%d\n",
        bench_case.id.c_str(), queries.size(), sequential_s, batch_s,
        speedup, mismatches);
    rwl::bench::JsonLine(std::string("batch/") + bench_case.id)
        .Field("queries", static_cast<int>(queries.size()))
        .Field("sequential_s", sequential_s)
        .Field("batch_s", batch_s)
        .Field("speedup", speedup)
        .Field("mismatches", mismatches)
        .Emit();

    // Sweep worker pool: serial vs. pooled grid on the first query.
    rwl::InferenceOptions serial_options = options;
    serial_options.enable_caching = false;
    serial_options.limit.num_threads = 1;
    Clock::time_point p0 = Clock::now();
    rwl::Answer serial_answer =
        rwl::DegreeOfBelief(kb, queries[0], serial_options);
    Clock::time_point p1 = Clock::now();
    rwl::InferenceOptions pooled_options = serial_options;
    pooled_options.limit.num_threads = 0;  // one worker per hardware thread
    rwl::Answer pooled_answer =
        rwl::DegreeOfBelief(kb, queries[0], pooled_options);
    Clock::time_point p2 = Clock::now();
    double serial_s = Seconds(p0, p1);
    double pooled_s = Seconds(p1, p2);
    bool same = serial_answer.status == pooled_answer.status &&
                serial_answer.value == pooled_answer.value;
    std::printf(
        "  [%-18s] sweep: serial=%.3fs  pooled=%.3fs  speedup=%.2fx  "
        "identical=%s\n",
        bench_case.id.c_str(), serial_s, pooled_s,
        pooled_s > 0 ? serial_s / pooled_s : 0.0, same ? "yes" : "NO");
    rwl::bench::JsonLine(std::string("sweep-pool/") + bench_case.id)
        .Field("serial_s", serial_s)
        .Field("pooled_s", pooled_s)
        .Field("speedup", pooled_s > 0 ? serial_s / pooled_s : 0.0)
        .Field("identical", same)
        .Emit();

    if (mismatches > 0 || !same) return 1;
  }
  return 0;
}
