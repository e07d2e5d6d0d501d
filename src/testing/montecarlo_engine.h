// Monte-Carlo engine: Pr_N^τ estimation by uniform world sampling.
//
// Samples worlds uniformly (every predicate cell an independent fair coin,
// every function cell uniform over the domain — exactly the random-worlds
// prior), rejects those violating the KB, and estimates Pr_N^τ(φ|KB) as the
// accepted fraction satisfying φ.  This covers vocabularies the profile
// engine cannot (binary and higher-arity predicates, function symbols) at
// domain sizes the exact engine cannot reach — *provided* the KB is not
// too improbable under the prior: rejection sampling degrades as Pr(KB)
// shrinks, which is why KBs built from near-extreme defaults (≈ 1 with
// tiny τ) need the profile engine instead.  The result reports the
// acceptance count so callers can judge the estimate.
//
// The paper never samples: Pr_∞ comes from theorems, maximum entropy and
// exact counting, so this engine is not a planner strategy.  It is a test
// oracle, the statistical side of the differential `finite` check
// (testing/differential.h, rwlfuzz --mc-samples, the corpus `//! mc:`
// directive) on vocabularies the deterministic engines cover only at
// small N.
#ifndef RWL_TESTING_MONTECARLO_ENGINE_H_
#define RWL_TESTING_MONTECARLO_ENGINE_H_

#include <cstdint>

#include "src/engines/engine.h"

namespace rwl::testing {

class MonteCarloEngine : public engines::FiniteEngine {
 public:
  struct Options {
    uint64_t num_samples = 200'000;
    // Below this many accepted samples the estimate is reported as not
    // well-defined (indistinguishable from an unsatisfiable KB).
    uint64_t min_accepted = 50;
    uint64_t seed = 20260612;
    // Refuse instances whose world representation exceeds this many cells
    // (sampling time is linear in it).
    int64_t max_cells = 1'000'000;
    // Worker-pool width for the sample loop (0 = one per hardware thread).
    // The stream is split into a fixed number of shards with per-shard
    // derived seeds, so estimates are bit-identical at every setting.
    int num_threads = 0;
  };

  MonteCarloEngine() = default;
  explicit MonteCarloEngine(const Options& options) : options_(options) {}

  std::string name() const override { return "montecarlo"; }

  bool Supports(const QueryContext& ctx, const logic::FormulaPtr& query,
                int domain_size) const override;

  // Sampling is deterministic in (options, N, ⃗τ, query), so results are
  // safe to memoize; the salt pins the options.
  std::string CacheSalt() const override;

  // Estimates carry binomial sampling error; differential comparisons must
  // budget for it.
  engines::ResultClass result_class() const override {
    return engines::ResultClass::kStatistical;
  }

 protected:
  // Reuses the context's compiled programs for the KB and query instead of
  // recompiling per (N, ⃗τ) point when caching is on.
  engines::FiniteResult DegreeAtInContext(
      QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
      const semantics::ToleranceVector& tolerances) const override;

 private:
  Options options_;
};

}  // namespace rwl::testing

#endif  // RWL_TESTING_MONTECARLO_ENGINE_H_
