#include "src/testing/montecarlo_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/combinatorics/logmath.h"
#include "src/core/query_context.h"
#include "src/semantics/compile.h"
#include "src/semantics/vm.h"
#include "src/semantics/world.h"
#include "src/util/thread_pool.h"

namespace rwl::testing {
namespace {

using engines::FiniteResult;

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

FiniteResult MonteCarloEngine::DegreeAtInContext(
    QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
    const semantics::ToleranceVector& tolerances) const {
  std::shared_ptr<const semantics::CompiledFormula> kb =
      ctx.Compiled(ctx.kb());
  std::shared_ptr<const semantics::CompiledFormula> compiled_query =
      ctx.Compiled(query);
  if (!kb->ok() || !compiled_query->ok()) {
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
        SampleShard(ctx.vocabulary(), *kb->program, *compiled_query->program,
                    domain_size, tolerances, options_.seed, s, shard_samples,
                    &counts[s]);
      });

  uint64_t accepted = 0;
  uint64_t satisfying = 0;
  for (const ShardCounts& c : counts) {
    accepted += c.accepted;
    satisfying += c.satisfying;
  }

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

std::string MonteCarloEngine::CacheSalt() const {
  // num_threads is deliberately absent: the fixed shard→seed derivation
  // makes estimates bit-identical at every worker-pool width.
  return "samples=" + std::to_string(options_.num_samples) +
         ";min=" + std::to_string(options_.min_accepted) +
         ";seed=" + std::to_string(options_.seed) +
         ";cells=" + std::to_string(options_.max_cells);
}

}  // namespace rwl::testing
