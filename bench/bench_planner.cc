// bench_planner — plan quality and planning overhead of the cost-based
// query planner (core/planner.h).
//
// For every generated workload the bench measures
//
//   * each forced strategy's wall time (rwlq --engine semantics) — the
//     "best-of-all-engines" baseline is the fastest forced strategy that
//     produced a final answer,
//   * the planner's wall time in cost mode (cheapest-predicted-first) —
//     plan-quality ratio = planner time / best forced time,
//   * the planning overhead (summed Assess + EstimateCost time; a cost
//     plan assesses every candidate) cold and on plan-cache hits, and
//   * deadline conformance: with a deadline set, the elapsed time never
//     exceeds the deadline by more than the final candidate's own probe
//     (plus scheduling slack).
//
// Differential gate: the planner's point answers must agree with every
// forced strategy's point answers (|Δ| ≤ 0.15, the limit-level epsilon) —
// a disagreement fails the bench.  Timing targets (≥ 90% of workloads
// within 2x of best-of-all) are reported and recorded in BENCH_JSON, but
// only correctness exits nonzero (CI machines have noisy clocks).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/engine_registry.h"
#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/planner.h"
#include "src/logic/parser.h"
#include "src/logic/transform.h"
#include "src/workload/generators.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct WorkloadCase {
  std::string profile;
  rwl::KnowledgeBase kb;
  rwl::logic::FormulaPtr query;
};

rwl::KnowledgeBase ToKb(const rwl::logic::FormulaPtr& kb_formula,
                        const rwl::logic::FormulaPtr& query) {
  rwl::KnowledgeBase kb;
  for (const auto& conjunct : rwl::logic::Conjuncts(kb_formula)) {
    kb.Add(conjunct);
  }
  kb.RegisterQuerySymbols(query);
  return kb;
}

std::vector<WorkloadCase> GenerateWorkloads(int per_profile) {
  std::vector<WorkloadCase> cases;
  std::mt19937 rng(20260730);

  struct Profile {
    const char* name;
    rwl::workload::UnaryKbParams params;
  };
  std::vector<Profile> profiles;
  {
    Profile p{"unary-small", {}};
    p.params.num_predicates = 2;
    p.params.num_constants = 1;
    p.params.num_statements = 2;
    profiles.push_back(p);
  }
  {
    Profile p{"unary-wide", {}};
    p.params.num_predicates = 4;
    p.params.num_constants = 2;
    p.params.num_statements = 3;
    p.params.num_facts = 2;
    profiles.push_back(p);
  }
  {
    Profile p{"unary-deep", {}};
    p.params.num_predicates = 3;
    p.params.num_constants = 1;
    p.params.num_statements = 2;
    p.params.max_depth = 3;
    profiles.push_back(p);
  }
  {
    Profile p{"defaults-heavy", {}};
    p.params.num_predicates = 3;
    p.params.num_constants = 1;
    p.params.num_statements = 3;
    p.params.default_fraction = 0.8;
    profiles.push_back(p);
  }

  for (const Profile& profile : profiles) {
    for (int i = 0; i < per_profile; ++i) {
      WorkloadCase c;
      c.profile = profile.name;
      rwl::logic::FormulaPtr kb_formula =
          rwl::workload::RandomUnaryKb(profile.params, &rng);
      c.query = rwl::workload::RandomQuery(profile.params, &rng);
      c.kb = ToKb(kb_formula, c.query);
      cases.push_back(std::move(c));
    }
  }

  // Taxonomy chains: the symbolic strength rule vs numeric sweeps.
  for (int i = 0; i < per_profile; ++i) {
    rwl::workload::ChainKb chain =
        rwl::workload::RandomChainKb(2 + (i % 3), &rng);
    WorkloadCase c;
    c.profile = "chain";
    c.query = chain.query;
    c.kb = ToKb(chain.kb, chain.query);
    cases.push_back(std::move(c));
  }
  return cases;
}

rwl::InferenceOptions BaseOptions() {
  rwl::InferenceOptions options;
  options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.05);
  options.limit.domain_sizes = {8, 12, 16};
  options.limit.tolerance_scales = {1.0, 0.5};
  // Keep the slowest candidates bounded (the exact odometer on wide
  // vocabularies) — the planner and the forced baselines share the cap.
  options.work_budget = 3e7;
  return options;
}

bool Answered(const rwl::Answer& answer) {
  return answer.status == rwl::Answer::Status::kPoint ||
         answer.status == rwl::Answer::Status::kUndefined;
}

struct ProfileStats {
  int cases = 0;
  int compared = 0;       // cases with a forced baseline to compare against
  int within_2x = 0;
  double log_ratio_sum = 0.0;
  double planning_cold_ms_sum = 0.0;
  double planner_ms_sum = 0.0;
  double best_forced_ms_sum = 0.0;
  double cache_speedup_sum = 0.0;
  int cache_hits = 0;
  int agreement_failures = 0;
  int deadline_violations = 0;
  double max_deadline_overshoot_ms = 0.0;
};

}  // namespace

int main() {
  const std::vector<WorkloadCase> cases = GenerateWorkloads(10);
  static const char* kForced[] = {"symbolic", "profile", "maxent", "exact"};

  std::vector<std::string> profile_order;
  std::vector<ProfileStats> stats_by_profile;
  auto stats_for = [&](const std::string& profile) -> ProfileStats& {
    for (size_t i = 0; i < profile_order.size(); ++i) {
      if (profile_order[i] == profile) return stats_by_profile[i];
    }
    profile_order.push_back(profile);
    stats_by_profile.emplace_back();
    return stats_by_profile.back();
  };

  rwl::bench::PrintHeader("planner plan quality vs best-of-all-engines");
  for (const WorkloadCase& c : cases) {
    ProfileStats& stats = stats_for(c.profile);
    ++stats.cases;

    // Forced baselines, each through a fresh context (cold, like a
    // single-query service request).
    double best_forced_ms = -1.0;
    std::string best_forced;
    std::vector<std::pair<std::string, rwl::Answer>> forced_answers;
    for (const char* name : kForced) {
      rwl::InferenceOptions forced = BaseOptions();
      forced.strategies = rwl::StrategySet::Only(name);
      Clock::time_point t0 = Clock::now();
      rwl::Answer answer = rwl::DegreeOfBelief(c.kb, c.query, forced);
      double elapsed = MillisSince(t0);
      if (!Answered(answer)) continue;
      forced_answers.emplace_back(name, answer);
      if (best_forced_ms < 0.0 || elapsed < best_forced_ms) {
        best_forced_ms = elapsed;
        best_forced = name;
      }
    }

    // The planner, cost mode, cold context.
    rwl::InferenceOptions planned_options = BaseOptions();
    planned_options.plan_mode = rwl::PlanMode::kMinCost;
    Clock::time_point t0 = Clock::now();
    rwl::Answer planned = rwl::DegreeOfBelief(c.kb, c.query,
                                              planned_options);
    const double planner_ms = MillisSince(t0);
    if (planned.plan != nullptr) {
      stats.planning_cold_ms_sum += planned.plan->planning_ms;
    }

    // Agreement gate: planner point vs every forced point.
    if (planned.status == rwl::Answer::Status::kPoint) {
      for (const auto& [name, forced_answer] : forced_answers) {
        if (forced_answer.status != rwl::Answer::Status::kPoint) continue;
        if (std::fabs(forced_answer.value - planned.value) > 0.15) {
          ++stats.agreement_failures;
          std::printf("  DISAGREE [%s] planner=%.4f forced:%s=%.4f\n",
                      c.profile.c_str(), planned.value, name.c_str(),
                      forced_answer.value);
        }
      }
    }

    if (best_forced_ms >= 0.0 && Answered(planned)) {
      ++stats.compared;
      double ratio = planner_ms / std::max(best_forced_ms, 1e-3);
      // Within 2x, with a 0.5ms absolute floor: at sub-millisecond
      // scale the constant planning + first-probe overhead dominates
      // the ratio, which measures clock noise rather than plan quality.
      if (ratio <= 2.0 || planner_ms - best_forced_ms <= 0.5) {
        ++stats.within_2x;
      }
      stats.log_ratio_sum += std::log(std::max(ratio, 1e-6));
      stats.planner_ms_sum += planner_ms;
      stats.best_forced_ms_sum += best_forced_ms;
    }

    // Plan-cache overhead: repeated shape in a shared context.
    {
      rwl::QueryContext ctx = rwl::MakeQueryContext(
          c.kb, std::span<const rwl::logic::FormulaPtr>(&c.query, 1),
          planned_options);
      Clock::time_point cold0 = Clock::now();
      rwl::Answer cold = rwl::DegreeOfBelief(ctx, c.query, planned_options);
      double cold_ms = MillisSince(cold0);
      Clock::time_point warm0 = Clock::now();
      rwl::Answer warm = rwl::DegreeOfBelief(ctx, c.query, planned_options);
      double warm_ms = MillisSince(warm0);
      if (warm.plan != nullptr && warm.plan->from_cache) {
        ++stats.cache_hits;
        stats.cache_speedup_sum +=
            cold_ms / std::max(warm_ms, 1e-4);
      }
      if (!(cold.status == warm.status && cold.value == warm.value &&
            cold.method == warm.method)) {
        ++stats.agreement_failures;
        std::printf("  DISAGREE [%s] plan-cache hit differs from cold\n",
                    c.profile.c_str());
      }
    }

    // Deadline conformance: elapsed ≤ deadline + the last candidate's own
    // probe time + slack.
    {
      rwl::InferenceOptions dl = BaseOptions();
      dl.deadline_ms = 2.0;
      Clock::time_point dl0 = Clock::now();
      rwl::Answer answer = rwl::DegreeOfBelief(c.kb, c.query, dl);
      double elapsed = MillisSince(dl0);
      double last_probe_ms = 0.0;
      if (answer.plan != nullptr) {
        for (const rwl::PlanStep& step : answer.plan->steps) {
          if (step.action == rwl::PlanStep::Action::kRan) {
            last_probe_ms = step.observed_ms;
          }
        }
      }
      double overshoot = elapsed - dl.deadline_ms;
      stats.max_deadline_overshoot_ms =
          std::max(stats.max_deadline_overshoot_ms, overshoot);
      // Slack for planning + scheduling noise.
      if (overshoot > last_probe_ms + 25.0) ++stats.deadline_violations;
    }
  }

  int total_compared = 0;
  int total_within = 0;
  int total_failures = 0;
  int total_deadline_violations = 0;
  for (size_t i = 0; i < profile_order.size(); ++i) {
    const ProfileStats& s = stats_by_profile[i];
    total_compared += s.compared;
    total_within += s.within_2x;
    total_failures += s.agreement_failures;
    total_deadline_violations += s.deadline_violations;
    double geo_ratio =
        s.compared > 0 ? std::exp(s.log_ratio_sum / s.compared) : 0.0;
    double within_frac =
        s.compared > 0 ? static_cast<double>(s.within_2x) / s.compared : 1.0;
    std::printf(
        "  [%-14s] cases=%-3d within2x=%.0f%%  geo-ratio=%.2f  "
        "planner=%.2fms best=%.2fms  plan-cold=%.3fms  cache-speedup=%.1fx  "
        "max-deadline-overshoot=%.2fms\n",
        profile_order[i].c_str(), s.cases, within_frac * 100.0, geo_ratio,
        s.compared > 0 ? s.planner_ms_sum / s.compared : 0.0,
        s.compared > 0 ? s.best_forced_ms_sum / s.compared : 0.0,
        s.cases > 0 ? s.planning_cold_ms_sum / s.cases : 0.0,
        s.cache_hits > 0 ? s.cache_speedup_sum / s.cache_hits : 0.0,
        s.max_deadline_overshoot_ms);
    rwl::bench::JsonLine line("planner");
    line.Field("profile", profile_order[i])
        .Field("cases", s.cases)
        .Field("compared", s.compared)
        .Field("within_2x_fraction", within_frac)
        .Field("geo_mean_ratio", geo_ratio)
        .Field("mean_planner_ms",
               s.compared > 0 ? s.planner_ms_sum / s.compared : 0.0)
        .Field("mean_best_forced_ms",
               s.compared > 0 ? s.best_forced_ms_sum / s.compared : 0.0)
        .Field("mean_cold_planning_ms",
               s.cases > 0 ? s.planning_cold_ms_sum / s.cases : 0.0)
        .Field("mean_cache_hit_speedup",
               s.cache_hits > 0 ? s.cache_speedup_sum / s.cache_hits : 0.0)
        .Field("max_deadline_overshoot_ms", s.max_deadline_overshoot_ms)
        .Field("deadline_violations", s.deadline_violations)
        .Field("agreement_failures", s.agreement_failures);
    line.Emit();
  }

  double overall_within = total_compared > 0
                              ? static_cast<double>(total_within) /
                                    total_compared
                              : 1.0;
  std::printf(
      "\n  overall: %d/%d within 2x of best-of-all (%.0f%%; target 90%%), "
      "%d agreement failure(s), %d deadline violation(s)\n",
      total_within, total_compared, overall_within * 100.0, total_failures,
      total_deadline_violations);
  rwl::bench::JsonLine summary("planner");
  summary.Field("profile", "overall")
      .Field("compared", total_compared)
      .Field("within_2x_fraction", overall_within)
      .Field("meets_2x_target", overall_within >= 0.9)
      .Field("agreement_failures", total_failures)
      .Field("deadline_violations", total_deadline_violations);
  summary.Emit();

  // ---- cost-model rows for the closed-form strategies ----
  //
  // EstimateCost is a pure function of the KB shape, so these rows are
  // bit-deterministic run to run — bench_gate.py compares them against
  // bench/baselines/BENCH_planner.json with a tight ratio.  A cost-model
  // change that would silently reorder cost-mode plans shows up here as a
  // predicted_work jump before it shows up as a planner regression.
  {
    struct CostProbe {
      const char* strategy;
      const char* kb_text;
      const char* query;
    };
    static const CostProbe kProbes[] = {
        {"epsilon_semantics",
         "#(Bird(x) ; Penguin(x))[x] ~= 1\n"
         "#(Fly(x) ; Bird(x))[x] ~= 1\n"
         "#(Fly(x) ; Penguin(x))[x] ~= 0\n"
         "Penguin(Opus)\n",
         "Fly(Opus)"},
        {"klm",
         "#(Bird(x) ; Penguin(x))[x] ~= 1\n"
         "#(Fly(x) ; Bird(x))[x] ~= 1\n"
         "#(Fly(x) ; Penguin(x))[x] ~= 0\n"
         "Penguin(Opus)\n",
         "Fly(Opus)"},
        {"gmp90",
         "#(Bird(x) ; Penguin(x))[x] ~= 1\n"
         "#(Fly(x) ; Bird(x))[x] ~= 1\n"
         "#(Fly(x) ; Penguin(x))[x] ~= 0\n"
         "Penguin(Opus)\n",
         "Fly(Opus)"},
        {"evidence",
         "#(Hep(x) ; Jaun(x))[x] ~=_1 0.8\n"
         "#(Hep(x) ; Pos(x))[x] ~=_2 0.75\n"
         "Jaun(Eric)\nPos(Eric)\n"
         "(exists! x. (Jaun(x) & Pos(x)))\n",
         "Hep(Eric)"},
        {"calibrated",
         "Jaun(Eric)\n#(Hep(x) ; Jaun(x))[x] ~= 0.8\n",
         "Hep(Eric)"},
    };
    std::printf("\n  cost-model probes (deterministic; gated vs baseline):\n");
    int cost_model_failures = 0;
    for (const CostProbe& probe : kProbes) {
      auto strategy = rwl::EngineRegistry::Default().Find(probe.strategy);
      if (strategy == nullptr) {
        ++cost_model_failures;
        std::printf("  FAIL: strategy '%s' not registered\n", probe.strategy);
        continue;
      }
      rwl::KnowledgeBase kb;
      std::string error;
      if (!kb.AddParsed(probe.kb_text, &error)) {
        ++cost_model_failures;
        std::printf("  FAIL: cost probe KB for '%s': %s\n", probe.strategy,
                    error.c_str());
        continue;
      }
      rwl::InferenceOptions options = BaseOptions();
      if (std::string(probe.strategy) == "calibrated") {
        options.interval_confidence = 0.9;
      }
      rwl::logic::FormulaPtr query =
          rwl::logic::ParseFormula(probe.query).formula;
      rwl::QueryContext ctx = rwl::MakeQueryContext(
          kb, std::span<const rwl::logic::FormulaPtr>(&query, 1), options);
      rwl::engines::Capability cap = strategy->Assess(ctx, query, options);
      if (!cap.applicable) {
        ++cost_model_failures;
        std::printf("  FAIL: '%s' inapplicable on its canonical probe (%s)\n",
                    probe.strategy, cap.reason.c_str());
        continue;
      }
      rwl::engines::CostEstimate cost =
          strategy->EstimateCost(ctx, query, options);
      std::printf("  [%-17s] predicted work=%-12.6g error=%.3g\n",
                  probe.strategy, cost.work, cost.error);
      rwl::bench::JsonLine line("planner");
      line.Field("id", std::string("cost_model_") + probe.strategy)
          .Field("strategy", probe.strategy)
          .Field("predicted_work", cost.work)
          .Field("predicted_error", cost.error);
      line.Emit();
    }
    total_failures += cost_model_failures;
  }

  if (total_failures > 0) {
    std::printf("  FAIL: planner answers disagree with forced engines\n");
    return 1;
  }
  std::printf("  PASS: planner differentially equivalent to forced engines\n");
  return 0;
}
