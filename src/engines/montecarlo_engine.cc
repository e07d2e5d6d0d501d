#include "src/engines/montecarlo_engine.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/combinatorics/logmath.h"
#include "src/core/query_context.h"
#include "src/engines/symbolic_engine.h"
#include "src/semantics/compile.h"
#include "src/semantics/vm.h"
#include "src/semantics/world.h"
#include "src/util/thread_pool.h"

namespace rwl::engines {
namespace {

// The sample stream is split into a FIXED number of shards regardless of
// the worker-pool width; each shard derives its own RNG from (seed, shard)
// and the per-shard counts merge by addition, so estimates are bit-identical
// across --threads settings (and to a single-threaded run).
constexpr int kSampleShards = 32;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ShardCounts {
  uint64_t accepted = 0;
  uint64_t satisfying = 0;
};

void SampleShard(const logic::Vocabulary& vocabulary,
                 const semantics::Program& kb_program,
                 const semantics::Program& query_program, int domain_size,
                 const semantics::ToleranceVector& tolerances, uint64_t seed,
                 int shard, uint64_t num_samples, ShardCounts* counts) {
  std::mt19937_64 rng(SplitMix64(seed + static_cast<uint64_t>(shard)));
  std::uniform_int_distribution<int> element(0, domain_size - 1);

  semantics::World world(&vocabulary, domain_size);
  semantics::EvalFrame kb_frame;
  semantics::EvalFrame query_frame;
  kb_frame.Prepare(kb_program, tolerances);
  query_frame.Prepare(query_program, tolerances);

  const int unary_words = world.unary_words();
  const uint64_t tail_mask = world.unary_tail_mask();

  for (uint64_t s = 0; s < num_samples; ++s) {
    // Resample every cell uniformly: 64 predicate cells per draw, LSB
    // first, leftover bits of a table's last draw discarded.  For packed
    // unary columns that is exactly one masked draw per word, so the
    // stream of worlds is bit-identical to the legacy byte-table fill.
    for (int p = 0; p < vocabulary.num_predicates(); ++p) {
      if (world.predicate_arity(p) == 1) {
        uint64_t* column = world.unary_column(p);
        for (int i = 0; i < unary_words; ++i) {
          column[i] = rng() & (i == unary_words - 1 ? tail_mask : ~uint64_t{0});
        }
        continue;
      }
      auto& table = world.predicate_table(p);
      uint64_t bits = 0;
      int have = 0;
      for (auto& cell : table) {
        if (have == 0) {
          bits = rng();
          have = 64;
        }
        cell = bits & 1;
        bits >>= 1;
        --have;
      }
    }
    for (int f = 0; f < vocabulary.num_functions(); ++f) {
      for (auto& cell : world.function_table(f)) {
        cell = element(rng);
      }
    }
    if (!semantics::RunProgram(kb_program, world, &kb_frame)) continue;
    ++counts->accepted;
    if (semantics::RunProgram(query_program, world, &query_frame)) {
      ++counts->satisfying;
    }
  }
}

}  // namespace

bool MonteCarloEngine::Supports(const QueryContext& ctx,
                                const logic::FormulaPtr& /*query*/,
                                int domain_size) const {
  if (domain_size <= 0) return false;
  semantics::World probe(&ctx.vocabulary(), domain_size);
  return probe.TotalPredicateCells() + probe.TotalFunctionCells() <=
         options_.max_cells;
}

FiniteResult MonteCarloEngine::Sample(
    const logic::Vocabulary& vocabulary,
    const semantics::CompiledFormula& kb,
    const semantics::CompiledFormula& query, int domain_size,
    const semantics::ToleranceVector& tolerances,
    uint64_t* accepted_out) const {
  *accepted_out = 0;
  if (!kb.ok() || !query.ok()) {
    // Compile failure (user-input error): the engine gives up instead of
    // the process aborting inside the evaluator.
    FiniteResult result;
    result.exhausted = true;
    return result;
  }

  const int shards =
      static_cast<int>(std::min<uint64_t>(kSampleShards,
                                          std::max<uint64_t>(
                                              options_.num_samples, 1)));
  std::vector<ShardCounts> counts(shards);
  const uint64_t base = options_.num_samples / shards;
  const uint64_t remainder = options_.num_samples % shards;
  util::ParallelFor(
      util::EffectiveThreads(options_.num_threads, shards), shards,
      [&](int s) {
        const uint64_t shard_samples =
            base + (static_cast<uint64_t>(s) < remainder ? 1 : 0);
        SampleShard(vocabulary, *kb.program, *query.program, domain_size,
                    tolerances, options_.seed, s, shard_samples, &counts[s]);
      });

  uint64_t accepted = 0;
  uint64_t satisfying = 0;
  for (const ShardCounts& c : counts) {
    accepted += c.accepted;
    satisfying += c.satisfying;
  }
  *accepted_out = accepted;

  FiniteResult result;
  if (accepted < options_.min_accepted) return result;
  result.well_defined = true;
  result.probability =
      static_cast<double>(satisfying) / static_cast<double>(accepted);
  result.log_numerator =
      satisfying > 0 ? std::log(static_cast<double>(satisfying)) : kNegInf;
  result.log_denominator = std::log(static_cast<double>(accepted));
  return result;
}

FiniteResult MonteCarloEngine::DegreeAtInContext(
    QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
    const semantics::ToleranceVector& tolerances) const {
  uint64_t accepted = 0;
  FiniteResult result =
      Sample(ctx.vocabulary(), *ctx.Compiled(ctx.kb()), *ctx.Compiled(query),
             domain_size, tolerances, &accepted);
  // Feed the observed acceptance rate back to the planner's cost model
  // (advisory only: it sharpens later cost predictions in this context,
  // never the results themselves).  A cache-free context stores nothing.
  if (ctx.caching_enabled() && !result.exhausted &&
      options_.num_samples > 0) {
    ctx.StoreBlob("planner.mc.acceptance|" + CacheSalt(),
                  std::make_shared<const double>(
                      static_cast<double>(accepted) /
                      static_cast<double>(options_.num_samples)),
                  sizeof(double));
  }
  return result;
}

CostEstimate MonteCarloEngine::EstimateCost(const QueryContext& ctx,
                                            const logic::FormulaPtr& query,
                                            int domain_size) const {
  (void)query;
  CostEstimate cost;
  semantics::World probe(&ctx.vocabulary(), domain_size);
  const double cells = static_cast<double>(probe.TotalPredicateCells() +
                                           probe.TotalFunctionCells());
  const double samples = static_cast<double>(options_.num_samples);
  // Each sample fills every cell, then evaluates the KB (and, on
  // acceptance, the query); cell filling dominates at realistic N.
  cost.work = samples * std::max(cells * 0.1, 1.0);

  // Acceptance-rate estimate: prefer the rate observed earlier in this
  // context; otherwise a prior from the KB's statistical conjuncts — each
  // ≈-constraint of width w keeps roughly a w-fraction of uniform worlds
  // (binomial concentration makes tight defaults expensive to hit).
  double acceptance = 0.0;
  std::string acceptance_basis;
  auto observed = std::static_pointer_cast<const double>(
      ctx.LookupBlob("planner.mc.acceptance|" + CacheSalt()));
  if (observed != nullptr) {
    acceptance = *observed;
    acceptance_basis = "observed acceptance";
  } else {
    acceptance = 1.0;
    for (const StatStatement& stat : ctx.kb_analysis().stats) {
      double width = std::max(stat.hi - stat.lo, 0.05);
      acceptance *= std::min(width + 0.1, 1.0);
    }
    acceptance_basis = "prior acceptance from KB constraint widths";
  }
  acceptance = std::max(acceptance, 1e-6);
  const double accepted = std::max(samples * acceptance, 1.0);
  cost.error = 0.5 / std::sqrt(accepted);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.3g samples x %.0f cells; %s %.3g",
                samples, cells, acceptance_basis.c_str(), acceptance);
  cost.basis = buf;
  return cost;
}

std::string MonteCarloEngine::CacheSalt() const {
  // num_threads is deliberately absent: the fixed shard→seed derivation
  // makes estimates bit-identical at every worker-pool width.
  return "samples=" + std::to_string(options_.num_samples) +
         ";min=" + std::to_string(options_.min_accepted) +
         ";seed=" + std::to_string(options_.seed) +
         ";cells=" + std::to_string(options_.max_cells);
}

}  // namespace rwl::engines
