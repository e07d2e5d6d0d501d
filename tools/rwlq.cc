// rwlq — command-line degrees of belief.
//
// Usage:
//   rwlq <kb-file> <query> [<query> ...]
//   rwlq --kb '<inline kb text>' <query> ...
//
// The KB file uses the textual L≈ syntax, one sentence per line, with //
// comments (see README.md).  Each query is parsed, inferred and reported
// with the method that produced the answer.
//
// Options:
//   --kb TEXT        inline KB instead of a file
//   --nmax N         largest domain size for numeric sweeps (default 48)
//   --tol T          base tolerance (default 0.04)
//   --no-symbolic    disable the theorem engine (numeric only)
//   --series         print the (N, τ, Pr) convergence series
//   --json           one JSON object per query on stdout
//   --fixed-n N      known domain size: compute Pr_N directly (footnote 9)
//   --threads N      worker pool for the (N, τ) sweep grid (0 = all cores)
//   --no-cache       disable the shared QueryContext caches (debugging)
//   --explain        print the planner's plan trace per query (strategies
//                    assessed/tried, predicted vs observed costs, skips);
//                    with --json, adds a "plan" object per query
//   --engine NAME    run only this strategy (fixed-n, calibrated, symbolic,
//                    profile, epsilon_semantics, klm, gmp90, evidence,
//                    maxent, exact); overrides --no-symbolic
//   --interval CONF  calibrated-interval mode: report an order-statistic
//                    interval that covers a 1-CONF-trimmed share of the
//                    sweep series (confidence in (0,1); 0 disables)
//   --list-engines   print each engine's name and capability on the
//                    loaded KB, then exit
//   --plan MODE      candidate order: fidelity (paper preference, the
//                    default) or cost (cheapest predicted engine first)
//   --deadline-ms D  per-query wall-clock deadline (engines stop between
//                    probes; overshoot is at most one probe)
//   --budget W       per-candidate predicted-work budget (abstract engine
//                    work units; over-budget candidates are skipped)
//
// Multiple queries are answered as one batch over a shared QueryContext:
// the KB analyses and per-(N, τ) world enumerations run once, duplicate
// queries are deduplicated, repeated query shapes reuse cached plans, and
// answers print in argument order.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine_registry.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/planner.h"
#include "src/logic/parser.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (<kb-file> | --kb TEXT) [options] <query>...\n"
               "options: --nmax N  --tol T  --no-symbolic  --series\n"
               "         --json  --fixed-n N  --threads N  --no-cache\n"
               "         --explain  --engine NAME\n"
               "         --interval CONF\n"
               "         --list-engines  --plan fidelity|cost\n"
               "         --deadline-ms D  --budget W\n",
               argv0);
  return 2;
}

// --list-engines: every registered strategy's identity and capability on
// the loaded KB (probed with the trivial query ⊤ — capability is a
// (KB, vocabulary) property for every engine except the theorem matchers,
// which accept the full language anyway).
int ListEngines(const rwl::KnowledgeBase& kb,
                const rwl::InferenceOptions& options) {
  rwl::QueryContext ctx = rwl::MakeQueryContext(
      kb, std::span<const rwl::logic::FormulaPtr>(), options);
  std::printf("%-17s %-11s %s\n", "engine", "applicable",
              "capability on this KB");
  for (const auto& strategy : rwl::EngineRegistry::Default().Ordered()) {
    rwl::engines::Capability cap;
    cap.reason = "not in the strategy set";
    if (options.strategies.Contains(strategy->name())) {
      cap = strategy->Assess(ctx, rwl::logic::Formula::True(), options);
    }
    std::string detail = cap.reason;
    if (cap.applicable) {
      rwl::engines::CostEstimate cost =
          strategy->EstimateCost(ctx, rwl::logic::Formula::True(), options);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "; predicted work=%.3g", cost.work);
      detail += buf;
    }
    std::printf("%-17s %-11s %s\n", strategy->name().c_str(),
                cap.applicable ? "yes" : "no", detail.c_str());
  }
  int max_arity = 0;
  for (const auto& predicate : ctx.vocabulary().predicates()) {
    max_arity = std::max(max_arity, predicate.arity);
  }
  std::printf("(vocabulary: max arity %d, %d constants%s)\n", max_arity,
              static_cast<int>(ctx.vocabulary().Constants().size()),
              ctx.vocabulary().IsUnaryRelational() ? ", unary fragment" : "");
  return 0;
}

const char* StepActionName(rwl::PlanStep::Action action) {
  switch (action) {
    case rwl::PlanStep::Action::kRan:
      return "ran";
    case rwl::PlanStep::Action::kSkippedInapplicable:
      return "inapplicable";
    case rwl::PlanStep::Action::kSkippedBudget:
      return "over-budget";
    case rwl::PlanStep::Action::kSkippedDeadline:
      return "deadline";
    case rwl::PlanStep::Action::kNotReached:
      return "not-reached";
  }
  return "?";
}

// Backslash-escapes quotes/backslashes and hides control bytes; the mode
// string embeds the user-supplied --engine name, so it cannot be printed
// verbatim into JSON.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

void PrintPlanJson(const rwl::PlanTrace& trace) {
  std::printf(", \"plan\": {\"mode\": \"%s\", \"cache\": %s, "
              "\"deadline_hit\": %s, \"planning_ms\": %.3f, "
              "\"total_ms\": %.3f, \"steps\": [",
              JsonEscape(trace.mode).c_str(),
              trace.from_cache ? "true" : "false",
              trace.deadline_hit ? "true" : "false", trace.planning_ms,
              trace.total_ms);
  for (size_t i = 0; i < trace.steps.size(); ++i) {
    const rwl::PlanStep& step = trace.steps[i];
    std::printf("%s{\"strategy\": \"%s\", \"action\": \"%s\"",
                i > 0 ? ", " : "", JsonEscape(step.strategy).c_str(),
                StepActionName(step.action));
    if (step.action == rwl::PlanStep::Action::kRan) {
      std::printf(", \"outcome\": \"%s\", \"observed_ms\": %.3f",
                  JsonEscape(step.outcome).c_str(), step.observed_ms);
    }
    if (step.capability.applicable) {
      std::printf(", \"predicted_work\": %.6g, \"predicted_error\": %.6g",
                  step.predicted.work, step.predicted.error);
    }
    std::printf("}");
  }
  std::printf("]}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string kb_text;
  bool have_kb = false;
  std::vector<std::string> queries;
  rwl::InferenceOptions options;
  options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.04);
  int nmax = 48;
  bool print_series = false;
  bool json = false;
  bool explain = false;
  bool list_engines = false;
  std::string engine;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--kb") {
      if (++i >= argc) return Usage(argv[0]);
      kb_text = argv[i];
      have_kb = true;
    } else if (arg == "--nmax") {
      if (++i >= argc) return Usage(argv[0]);
      nmax = std::atoi(argv[i]);
    } else if (arg == "--tol") {
      if (++i >= argc) return Usage(argv[0]);
      options.tolerances =
          rwl::semantics::ToleranceVector::Uniform(std::atof(argv[i]));
    } else if (arg == "--no-symbolic") {
      options.strategies.Remove("symbolic");
    } else if (arg == "--series") {
      print_series = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--fixed-n") {
      if (++i >= argc) return Usage(argv[0]);
      options.fixed_domain_size = std::atoi(argv[i]);
    } else if (arg == "--threads") {
      if (++i >= argc) return Usage(argv[0]);
      options.limit.num_threads = std::atoi(argv[i]);
    } else if (arg == "--no-cache") {
      options.enable_caching = false;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--engine") {
      if (++i >= argc) return Usage(argv[0]);
      engine = argv[i];
    } else if (arg == "--interval") {
      if (++i >= argc) return Usage(argv[0]);
      double conf = std::atof(argv[i]);
      if (!(conf > 0.0 && conf < 1.0)) {
        std::fprintf(stderr, "rwlq: --interval wants a confidence in (0,1)\n");
        return 2;
      }
      options.interval_confidence = conf;
    } else if (arg == "--list-engines") {
      list_engines = true;
    } else if (arg == "--plan") {
      if (++i >= argc) return Usage(argv[0]);
      std::string mode = argv[i];
      if (mode == "fidelity") {
        options.plan_mode = rwl::PlanMode::kFidelity;
      } else if (mode == "cost") {
        options.plan_mode = rwl::PlanMode::kMinCost;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--deadline-ms") {
      if (++i >= argc) return Usage(argv[0]);
      options.deadline_ms = std::atof(argv[i]);
    } else if (arg == "--budget") {
      if (++i >= argc) return Usage(argv[0]);
      options.work_budget = std::atof(argv[i]);
    } else if (!have_kb) {
      std::ifstream file(arg);
      if (!file) {
        std::fprintf(stderr, "rwlq: cannot open KB file '%s'\n",
                     arg.c_str());
        return 2;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      kb_text = buffer.str();
      have_kb = true;
    } else {
      queries.push_back(arg);
    }
  }
  if (!have_kb || (queries.empty() && !list_engines)) return Usage(argv[0]);
  if (!engine.empty()) options.strategies = rwl::StrategySet::Only(engine);

  // Sweep schedule up to nmax.
  options.limit.domain_sizes.clear();
  for (int n = 8; n <= nmax; n = n < 16 ? n + 8 : n * 2) {
    options.limit.domain_sizes.push_back(n);
  }
  if (options.limit.domain_sizes.empty() ||
      options.limit.domain_sizes.back() != nmax) {
    options.limit.domain_sizes.push_back(nmax);
  }

  rwl::KnowledgeBase kb;
  std::string error;
  if (!kb.AddParsed(kb_text, &error)) {
    std::fprintf(stderr, "rwlq: KB parse error: %s\n", error.c_str());
    return 1;
  }

  if (list_engines) return ListEngines(kb, options);

  // Parse everything up front, then answer the parsed queries as one batch
  // over a shared QueryContext (deduplicated; per-(N, τ) work runs once).
  int failures = 0;
  std::vector<rwl::logic::FormulaPtr> parsed_queries(queries.size());
  std::vector<rwl::logic::FormulaPtr> valid;
  for (size_t i = 0; i < queries.size(); ++i) {
    rwl::logic::ParseResult parsed = rwl::logic::ParseFormula(queries[i]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "rwlq: query parse error in '%s': %s\n",
                   queries[i].c_str(), parsed.error.c_str());
      ++failures;
      continue;
    }
    parsed_queries[i] = parsed.formula;
    valid.push_back(parsed.formula);
  }
  std::vector<rwl::Answer> answers = rwl::DegreesOfBelief(kb, valid, options);

  size_t next_answer = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (parsed_queries[i] == nullptr) continue;
    const std::string& query_text = queries[i];
    rwl::Answer answer = std::move(answers[next_answer++]);
    if (json) {
      // Minimal hand-rolled JSON: all emitted strings are library-internal
      // (status/method names) except the query, which we escape.
      std::string escaped;
      for (char c : query_text) {
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += c;
      }
      std::printf("{\"query\": \"%s\", \"status\": \"%s\"", escaped.c_str(),
                  rwl::StatusToString(answer.status).c_str());
      if (answer.status == rwl::Answer::Status::kPoint) {
        std::printf(", \"value\": %.9f", answer.value);
      } else if (answer.status == rwl::Answer::Status::kInterval) {
        std::printf(", \"lo\": %.9f, \"hi\": %.9f", answer.lo, answer.hi);
      }
      std::printf(", \"method\": \"%s\", \"converged\": %s",
                  answer.method.c_str(),
                  answer.converged ? "true" : "false");
      if (explain && answer.plan != nullptr) PrintPlanJson(*answer.plan);
      std::printf("}\n");
      if (answer.status == rwl::Answer::Status::kUnknown) ++failures;
      continue;
    }
    switch (answer.status) {
      case rwl::Answer::Status::kPoint:
        std::printf("%s  =  %.6f", query_text.c_str(), answer.value);
        break;
      case rwl::Answer::Status::kInterval:
        std::printf("%s  in  [%.6f, %.6f]", query_text.c_str(), answer.lo,
                    answer.hi);
        break;
      case rwl::Answer::Status::kNonexistent:
        std::printf("%s  :  limit does not exist (%s)", query_text.c_str(),
                    answer.explanation.c_str());
        break;
      case rwl::Answer::Status::kUndefined:
        std::printf("%s  :  undefined — the KB has no worlds",
                    query_text.c_str());
        break;
      case rwl::Answer::Status::kUnknown:
        std::printf("%s  :  no engine applies (%s)", query_text.c_str(),
                    answer.explanation.c_str());
        ++failures;
        break;
    }
    if (!answer.method.empty()) {
      std::printf("   [%s%s]", answer.method.c_str(),
                  answer.converged ? "" : ", not converged");
    }
    std::printf("\n");
    if (print_series) {
      for (const auto& point : answer.series) {
        std::printf("    N=%-5d tau_scale=%-6.3f Pr=%.6f%s\n",
                    point.domain_size, point.tolerance_scale,
                    point.probability,
                    point.well_defined ? "" : "  (undefined)");
      }
    }
    if (explain && answer.plan != nullptr) {
      std::printf("%s", rwl::FormatPlanTrace(*answer.plan).c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}
