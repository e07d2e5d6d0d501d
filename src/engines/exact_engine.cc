#include "src/engines/exact_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/combinatorics/logmath.h"
#include "src/core/query_context.h"
#include "src/engines/world_cache.h"
#include "src/semantics/compile.h"
#include "src/semantics/vm.h"
#include "src/semantics/world.h"
#include "src/util/thread_pool.h"

namespace rwl::engines {
namespace {

double Log2WorldCount(const logic::Vocabulary& vocabulary, int domain_size) {
  double log2_count = 0.0;
  for (const auto& p : vocabulary.predicates()) {
    log2_count += std::pow(static_cast<double>(domain_size), p.arity);
  }
  for (const auto& f : vocabulary.functions()) {
    log2_count += std::pow(static_cast<double>(domain_size), f.arity) *
                  std::log2(static_cast<double>(domain_size));
  }
  return log2_count;
}

// The KB-satisfying worlds of one (N, ⃗τ) point, flattened cell-by-cell in
// enumeration order.  Replay restores each world and evaluates only the
// query; the counts (and hence the probability) are identical to a full
// enumeration.  Cells are stored as bytes in predicate-id order (packed
// unary columns are widened to their legacy byte view), so the blob layout
// is independent of the in-memory packing.
struct ExactWorldList {
  // Record-and-replay protocol state (see engines/world_cache.h).
  internal::WorldCacheState state = internal::WorldCacheState::kSeenOnce;
  bool valid = false;  // recording outcome (maps to kRecorded / kTooBig)
  int64_t pred_stride = 0;
  int64_t func_stride = 0;
  int64_t kb_count = 0;
  std::vector<uint8_t> pred_cells;  // kb_count × pred_stride
  std::vector<int> func_cells;      // kb_count × func_stride
  // The (N, ⃗τ) the list was recorded at (part of the blob key, but carried
  // here too so PatchExactWorlds can re-run worlds without parsing keys).
  int domain_size = 0;
  semantics::ToleranceVector tolerances;

  size_t ByteSize() const {
    return pred_cells.size() * sizeof(uint8_t) +
           func_cells.size() * sizeof(int);
  }
};

// Memory cap for one recorded point (~64 MiB of cells).
constexpr int64_t kMaxRecordedBytes = 64ll << 20;

// Exact number of worlds 2^(predicate cells) × N^(function cells), or -1
// when it does not fit in an int64 (such instances never pass the
// enumeration cap of Supports, but DegreeAt is callable directly).
int64_t ExactWorldCountOrNegative(const semantics::World& probe,
                                  int domain_size) {
  constexpr int64_t kLimit = int64_t{1} << 62;
  int64_t total = 1;
  for (int64_t i = 0; i < probe.TotalPredicateCells(); ++i) {
    if (total > kLimit / 2) return -1;
    total *= 2;
  }
  for (int64_t i = 0; i < probe.TotalFunctionCells(); ++i) {
    if (domain_size > 1 && total > kLimit / domain_size) return -1;
    total *= domain_size;
  }
  return total;
}

// Appends every predicate cell of the world as bytes in enumeration order
// (the ExactWorldList layout).
void AppendPredicateCells(const semantics::World& world,
                          std::vector<uint8_t>* out) {
  const auto& vocabulary = world.vocabulary();
  const int n = world.domain_size();
  for (int p = 0; p < vocabulary.num_predicates(); ++p) {
    if (world.predicate_arity(p) == 1) {
      const size_t base = out->size();
      out->resize(base + n);
      world.CopyUnaryColumnToBytes(p, out->data() + base);
    } else {
      const auto& table = world.predicate_table(p);
      out->insert(out->end(), table.begin(), table.end());
    }
  }
}

// Restores all predicate cells of the world from one recorded stride.
void LoadPredicateCells(semantics::World* world, const uint8_t* cells) {
  const auto& vocabulary = world->vocabulary();
  const int n = world->domain_size();
  for (int p = 0; p < vocabulary.num_predicates(); ++p) {
    if (world->predicate_arity(p) == 1) {
      world->LoadUnaryColumnFromBytes(p, cells);
      cells += n;
    } else {
      auto& table = world->predicate_table(p);
      std::copy(cells, cells + table.size(), table.begin());
      cells += table.size();
    }
  }
}

void LoadFunctionCells(semantics::World* world, const int* cells) {
  const auto& vocabulary = world->vocabulary();
  for (int f = 0; f < vocabulary.num_functions(); ++f) {
    auto& table = world->function_table(f);
    std::copy(cells, cells + table.size(), table.begin());
    cells += table.size();
  }
}

// One shard's contribution to the enumeration: counts, and (when recording)
// the KB worlds of its contiguous index range in enumeration order.
struct ShardTally {
  int64_t kb_count = 0;
  int64_t both_count = 0;
  bool record_overflow = false;
  int64_t recorded_bytes = 0;
  int64_t kb_recorded = 0;
  std::vector<uint8_t> pred_cells;
  std::vector<int> func_cells;
};

void RunShard(const logic::Vocabulary& vocabulary,
              const semantics::Program& kb_program,
              const semantics::Program& query_program, int domain_size,
              const semantics::ToleranceVector& tolerances, int64_t start,
              int64_t count, bool recording,
              std::atomic<int64_t>* global_recorded_bytes,
              ShardTally* tally) {
  semantics::World world(&vocabulary, domain_size);
  world.SeekToIndex(start);
  semantics::EvalFrame kb_frame;
  semantics::EvalFrame query_frame;
  kb_frame.Prepare(kb_program, tolerances);
  query_frame.Prepare(query_program, tolerances);

  if (!recording) {
    // Batch path: the block VM advances the packed columns in place.
    // `count < 0` means "until the odometer wraps" (instances whose world
    // count overflows int64; they never pass the enumeration cap, but
    // DegreeAt is callable directly and must keep the serial semantics).
    const semantics::BlockCounts counts = semantics::RunProgramBlock(
        kb_program, &query_program, &world, &kb_frame, &query_frame, count);
    tally->kb_count = counts.first;
    tally->both_count = counts.both;
    return;
  }

  const int num_functions = vocabulary.num_functions();
  const int64_t stride_bytes =
      world.TotalPredicateCells() +
      world.TotalFunctionCells() * static_cast<int64_t>(sizeof(int));

  for (int64_t w = 0; count < 0 || w < count; ++w) {
    if (semantics::RunProgram(kb_program, world, &kb_frame)) {
      ++tally->kb_count;
      if (!tally->record_overflow) {
        tally->recorded_bytes += stride_bytes;
        // The byte cap is shared across shards (an atomic running total),
        // so the parallel recording path never holds more than ~the cap in
        // memory before the merge decides validity.  The verdict stays
        // deterministic: it depends only on whether the total bytes of ALL
        // KB worlds exceed the cap, not on shard interleaving.
        if (global_recorded_bytes->fetch_add(
                stride_bytes, std::memory_order_relaxed) +
                stride_bytes >
            kMaxRecordedBytes) {
          tally->record_overflow = true;
        } else {
          AppendPredicateCells(world, &tally->pred_cells);
          for (int f = 0; f < num_functions; ++f) {
            const auto& table = world.function_table(f);
            tally->func_cells.insert(tally->func_cells.end(), table.begin(),
                                     table.end());
          }
          ++tally->kb_recorded;
        }
      }
      if (semantics::RunProgram(query_program, world, &query_frame)) {
        ++tally->both_count;
      }
    }
    if (!world.AdvanceOdometer() && count < 0) break;
  }
}

FiniteResult ResultFromCounts(int64_t kb_count, int64_t both_count) {
  FiniteResult result;
  if (kb_count == 0) return result;
  result.well_defined = true;
  result.probability =
      static_cast<double>(both_count) / static_cast<double>(kb_count);
  result.log_numerator = both_count > 0
                             ? std::log(static_cast<double>(both_count))
                             : kNegInf;
  result.log_denominator = std::log(static_cast<double>(kb_count));
  return result;
}

// An instance the compiler rejected (unbound variable, unknown symbol —
// user-input errors that used to abort inside the tree-walker).  Reported
// as "engine gave up", which lets the pipeline fall through to other
// engines instead of killing the process.
FiniteResult GaveUp() {
  FiniteResult result;
  result.exhausted = true;
  return result;
}

// ---- counting-loop collapse --------------------------------------------
//
// When KB and query are both aggregate-only (compile.h AnalyzeAggregate),
// a world matters only through the cardinalities of the m involved unary
// predicates.  Partition the domain into the 2^m classes of those
// predicates' joint truth table: every assignment of the N elements to
// classes with counts (c_0, ..., c_{2^m - 1}) realizes the same program
// results, and exactly multinomial(N; c) column choices produce it.  The
// loop below enumerates the compositions of N — C(N + 2^m - 1, 2^m - 1)
// of them, polynomial in N — instead of the 2^(mN) worlds, and multiplies
// the cells the programs never observe back in as a free factor.  When the
// full world count fits int64 the weights are exact integers, so the
// resulting FiniteResult is bit-identical to a full enumeration.

constexpr int kMaxCountingPreds = 3;
constexpr double kMaxCompositions = 2e6;

struct CountingPlan {
  bool eligible = false;
  std::vector<int> preds;     // involved unary predicate ids, sorted
  double compositions = 0.0;  // C(N + 2^m - 1, 2^m - 1)
};

// The N-independent half of PlanCounting: the sorted predicates the
// counting loop would run over, or nullopt when either program is not
// aggregate-only or they involve more than kMaxCountingPreds predicates.
std::optional<std::vector<int>> CountingPredicates(
    const semantics::Program& kb_program,
    const semantics::Program& query_program) {
  semantics::AggregateAnalysis kb_agg =
      semantics::AnalyzeAggregate(kb_program);
  semantics::AggregateAnalysis query_agg =
      semantics::AnalyzeAggregate(query_program);
  if (!kb_agg.aggregate_only || !query_agg.aggregate_only) {
    return std::nullopt;
  }
  std::vector<int> preds = std::move(kb_agg.predicates);
  preds.insert(preds.end(), query_agg.predicates.begin(),
               query_agg.predicates.end());
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  if (static_cast<int>(preds.size()) > kMaxCountingPreds) return std::nullopt;
  return preds;
}

// The N-dependent half: the composition count of a counting loop over
// `num_preds` predicates at N, or nullopt when the loop is out of range.
std::optional<double> CountingCompositions(int num_preds, int domain_size) {
  if (domain_size <= 0) return std::nullopt;
  // Composition weights sum to 2^(mN); keep that inside double range for
  // the beyond-int64 instances.
  if (static_cast<int64_t>(num_preds) * domain_size > 900) {
    return std::nullopt;
  }
  const int num_classes = 1 << num_preds;
  const double compositions =
      std::exp(LogBinomial(domain_size + num_classes - 1, num_classes - 1));
  if (!(compositions <= kMaxCompositions)) return std::nullopt;
  return compositions;
}

CountingPlan PlanCounting(const semantics::Program& kb_program,
                          const semantics::Program& query_program,
                          int domain_size) {
  CountingPlan plan;
  std::optional<std::vector<int>> preds =
      CountingPredicates(kb_program, query_program);
  if (!preds.has_value()) return plan;
  std::optional<double> compositions = CountingCompositions(
      static_cast<int>(preds->size()), domain_size);
  if (!compositions.has_value()) return plan;
  plan.compositions = *compositions;
  plan.preds = std::move(*preds);
  plan.eligible = true;
  return plan;
}

FiniteResult ComputeByCounting(const logic::Vocabulary& vocabulary,
                               const semantics::Program& kb_program,
                               const semantics::Program& query_program,
                               int domain_size,
                               const semantics::ToleranceVector& tolerances,
                               const CountingPlan& plan) {
  const int n = domain_size;
  const int m = static_cast<int>(plan.preds.size());
  const int num_classes = 1 << m;
  const int np = vocabulary.num_predicates();

  semantics::EvalFrame kb_frame;
  semantics::EvalFrame query_frame;
  kb_frame.Prepare(kb_program, tolerances);
  query_frame.Prepare(query_program, tolerances);

  std::vector<int64_t> single(np, 0);
  std::vector<int64_t> pair(static_cast<size_t>(np) * np, 0);
  const semantics::UnaryCountsView view{n, np, single.data(), pair.data()};

  semantics::World probe(&vocabulary, n);
  const int64_t exact_total = ExactWorldCountOrNegative(probe, n);
  const bool exact_mode = exact_total >= 0;

  // Binomial table up to N.  In exact mode every partial product of
  // binomials is a prefix multinomial ≤ 2^(mN) ≤ the int64 world count, so
  // uint64 arithmetic is exact; otherwise doubles carry the weights (and
  // only the beyond-enumeration instances ever take that path).
  std::vector<std::vector<uint64_t>> binom_u;
  std::vector<std::vector<double>> binom_d(n + 1,
                                           std::vector<double>(n + 1, 0.0));
  if (exact_mode) {
    binom_u.assign(n + 1, std::vector<uint64_t>(n + 1, 0));
  }
  for (int i = 0; i <= n; ++i) {
    binom_d[i][0] = 1.0;
    if (exact_mode) binom_u[i][0] = 1;
    for (int j = 1; j <= i; ++j) {
      binom_d[i][j] = binom_d[i - 1][j - 1] + binom_d[i - 1][j];
      if (exact_mode) binom_u[i][j] = binom_u[i - 1][j - 1] + binom_u[i - 1][j];
    }
  }

  uint64_t kb_u = 0;
  uint64_t both_u = 0;
  double kb_d = 0.0;
  double both_d = 0.0;

  // Adds (or removes) one class's element count to the cardinality view.
  auto apply = [&](int cls, int64_t c, int64_t sign) {
    for (int i = 0; i < m; ++i) {
      if (((cls >> i) & 1) == 0) continue;
      single[plan.preds[i]] += sign * c;
      for (int j = 0; j < m; ++j) {
        if (((cls >> j) & 1) == 0) continue;
        pair[static_cast<size_t>(plan.preds[i]) * np + plan.preds[j]] +=
            sign * c;
      }
    }
  };

  std::function<void(int, int64_t, uint64_t, double)> enumerate =
      [&](int cls, int64_t remaining, uint64_t weight_u, double weight_d) {
        if (cls == num_classes - 1) {
          apply(cls, remaining, +1);
          if (semantics::RunProgramOnCounts(kb_program, view, &kb_frame)) {
            if (exact_mode) {
              kb_u += weight_u;
            } else {
              kb_d += weight_d;
            }
            if (semantics::RunProgramOnCounts(query_program, view,
                                              &query_frame)) {
              if (exact_mode) {
                both_u += weight_u;
              } else {
                both_d += weight_d;
              }
            }
          }
          apply(cls, remaining, -1);
          return;
        }
        for (int64_t c = 0; c <= remaining; ++c) {
          apply(cls, c, +1);
          enumerate(cls + 1, remaining - c,
                    exact_mode ? weight_u * binom_u[remaining][c] : 0,
                    exact_mode ? 0.0 : weight_d * binom_d[remaining][c]);
          apply(cls, c, -1);
        }
      };
  enumerate(0, n, 1, 1.0);

  if (exact_mode) {
    // Cells the programs never observe multiply every class count by the
    // same free factor; restoring it makes the counts — and the resulting
    // FiniteResult — bit-identical to the full odometer enumeration.
    const int64_t involved = int64_t{1} << (m * n);
    const int64_t free_factor = exact_total / involved;
    return ResultFromCounts(static_cast<int64_t>(kb_u) * free_factor,
                            static_cast<int64_t>(both_u) * free_factor);
  }

  FiniteResult result;
  if (kb_d <= 0.0) return result;
  const double log_free =
      (static_cast<double>(probe.TotalPredicateCells()) -
       static_cast<double>(m) * n) *
          std::log(2.0) +
      static_cast<double>(probe.TotalFunctionCells()) *
          std::log(static_cast<double>(n));
  result.well_defined = true;
  result.probability = both_d / kb_d;
  result.log_numerator =
      both_d > 0.0 ? std::log(both_d) + log_free : kNegInf;
  result.log_denominator = std::log(kb_d) + log_free;
  return result;
}

FiniteResult ComputeExact(const logic::Vocabulary& vocabulary,
                          const semantics::CompiledFormula& kb,
                          const semantics::CompiledFormula& query,
                          int domain_size,
                          const semantics::ToleranceVector& tolerances,
                          ExactWorldList* record, int num_threads) {
  if (!kb.ok() || !query.ok()) return GaveUp();

  // Aggregate-only instances collapse to the counting loop (recording
  // requests keep the enumeration: the world list is query-independent
  // state other queries may replay against).
  if (record == nullptr) {
    const CountingPlan plan =
        PlanCounting(*kb.program, *query.program, domain_size);
    if (plan.eligible) {
      return ComputeByCounting(vocabulary, *kb.program, *query.program,
                               domain_size, tolerances, plan);
    }
  }

  semantics::World probe(&vocabulary, domain_size);
  const int64_t total = ExactWorldCountOrNegative(probe, domain_size);
  if (record != nullptr) {
    record->pred_stride = probe.TotalPredicateCells();
    record->func_stride = probe.TotalFunctionCells();
    record->domain_size = domain_size;
    record->tolerances = tolerances;
  }

  // Shard the contiguous world-index ranges across the pool; the merge
  // below reads the shards in index order, so counts and recorded cells
  // are identical to the serial enumeration at every thread count.
  int shards = 1;
  if (total > 0) {
    const int64_t max_shards = std::min<int64_t>(total, 64);
    shards = util::EffectiveThreads(num_threads,
                                    static_cast<int>(max_shards));
  }
  std::atomic<int64_t> global_recorded_bytes{0};
  if (shards <= 1 || total < 2048) {
    ShardTally tally;
    RunShard(vocabulary, *kb.program, *query.program, domain_size, tolerances,
             0, total, record != nullptr, &global_recorded_bytes, &tally);
    if (record != nullptr) {
      record->valid = !tally.record_overflow;
      if (record->valid) {
        record->pred_cells = std::move(tally.pred_cells);
        record->func_cells = std::move(tally.func_cells);
        record->kb_count = tally.kb_recorded;
      }
    }
    return ResultFromCounts(tally.kb_count, tally.both_count);
  }

  std::vector<ShardTally> tallies(shards);
  util::ParallelFor(shards, shards, [&](int s) {
    const int64_t start = total * s / shards;
    const int64_t end = total * (s + 1) / shards;
    RunShard(vocabulary, *kb.program, *query.program, domain_size, tolerances,
             start, end - start, record != nullptr, &global_recorded_bytes,
             &tallies[s]);
  });

  int64_t kb_count = 0;
  int64_t both_count = 0;
  int64_t recorded_bytes = 0;
  bool record_overflow = false;
  for (const ShardTally& tally : tallies) {
    kb_count += tally.kb_count;
    both_count += tally.both_count;
    recorded_bytes += tally.recorded_bytes;
    record_overflow = record_overflow || tally.record_overflow;
  }
  if (record != nullptr) {
    record->valid = !record_overflow && recorded_bytes <= kMaxRecordedBytes;
    if (record->valid) {
      for (ShardTally& tally : tallies) {
        record->pred_cells.insert(record->pred_cells.end(),
                                  tally.pred_cells.begin(),
                                  tally.pred_cells.end());
        record->func_cells.insert(record->func_cells.end(),
                                  tally.func_cells.begin(),
                                  tally.func_cells.end());
        record->kb_count += tally.kb_recorded;
      }
    }
  }
  return ResultFromCounts(kb_count, both_count);
}

FiniteResult ReplayExact(const logic::Vocabulary& vocabulary,
                         const ExactWorldList& worlds,
                         const semantics::CompiledFormula& query,
                         int domain_size,
                         const semantics::ToleranceVector& tolerances) {
  if (!query.ok()) return GaveUp();
  semantics::World world(&vocabulary, domain_size);
  semantics::EvalFrame query_frame;
  query_frame.Prepare(*query.program, tolerances);

  int64_t both_count = 0;
  int64_t pred_offset = 0;
  int64_t func_offset = 0;
  for (int64_t w = 0; w < worlds.kb_count; ++w) {
    LoadPredicateCells(&world, worlds.pred_cells.data() + pred_offset);
    LoadFunctionCells(&world, worlds.func_cells.data() + func_offset);
    pred_offset += worlds.pred_stride;
    func_offset += worlds.func_stride;
    if (semantics::RunProgram(*query.program, world, &query_frame)) {
      ++both_count;
    }
  }
  return ResultFromCounts(worlds.kb_count, both_count);
}

}  // namespace

std::shared_ptr<const void> PatchExactWorlds(
    const std::shared_ptr<const void>& blob,
    const logic::Vocabulary& vocabulary,
    const std::vector<logic::FormulaPtr>& appended, size_t* bytes_out) {
  auto worlds = std::static_pointer_cast<const ExactWorldList>(blob);
  if (worlds == nullptr ||
      worlds->state != internal::WorldCacheState::kRecorded ||
      !worlds->valid) {
    return nullptr;
  }
  // The new KB is (old KB ∧ appended) and every recorded world satisfies
  // the old KB, so running just the appended conjunction over the recorded
  // worlds keeps exactly the worlds a fresh enumeration of the new KB
  // would record — in the same index order, hence identical counts.
  semantics::CompiledFormula delta = semantics::CompileFormula(
      logic::Formula::AndAll(appended), vocabulary);
  if (!delta.ok()) return nullptr;
  semantics::World world(&vocabulary, worlds->domain_size);
  semantics::EvalFrame frame;
  frame.Prepare(*delta.program, worlds->tolerances);

  auto patched = std::make_shared<ExactWorldList>();
  patched->state = internal::WorldCacheState::kRecorded;
  patched->valid = true;
  patched->pred_stride = worlds->pred_stride;
  patched->func_stride = worlds->func_stride;
  patched->domain_size = worlds->domain_size;
  patched->tolerances = worlds->tolerances;

  int64_t pred_offset = 0;
  int64_t func_offset = 0;
  for (int64_t w = 0; w < worlds->kb_count; ++w) {
    LoadPredicateCells(&world, worlds->pred_cells.data() + pred_offset);
    LoadFunctionCells(&world, worlds->func_cells.data() + func_offset);
    if (semantics::RunProgram(*delta.program, world, &frame)) {
      patched->pred_cells.insert(
          patched->pred_cells.end(), worlds->pred_cells.begin() + pred_offset,
          worlds->pred_cells.begin() + pred_offset + worlds->pred_stride);
      patched->func_cells.insert(
          patched->func_cells.end(), worlds->func_cells.begin() + func_offset,
          worlds->func_cells.begin() + func_offset + worlds->func_stride);
      ++patched->kb_count;
    }
    pred_offset += worlds->pred_stride;
    func_offset += worlds->func_stride;
  }
  if (bytes_out != nullptr) *bytes_out = patched->ByteSize();
  return patched;
}

bool ExactEngine::Supports(const QueryContext& ctx,
                           const logic::FormulaPtr& query,
                           int domain_size) const {
  if (domain_size <= 0) return false;
  const logic::Vocabulary& vocabulary = ctx.vocabulary();
  if (Log2WorldCount(vocabulary, domain_size) <= max_log2_worlds_) {
    return true;
  }
  // Beyond the enumeration cap, aggregate-only instances still collapse to
  // the polynomial counting loop.
  semantics::CompiledFormula kb_compiled =
      semantics::CompileFormula(ctx.kb(), vocabulary);
  semantics::CompiledFormula query_compiled =
      semantics::CompileFormula(query, vocabulary);
  if (!kb_compiled.ok() || !query_compiled.ok()) return false;
  return PlanCounting(*kb_compiled.program, *query_compiled.program,
                      domain_size)
      .eligible;
}

ExactEngine::CostInputs ExactEngine::AnalyzeCost(
    const QueryContext& ctx, const logic::FormulaPtr& query) const {
  CostInputs inputs;
  inputs.length = ApproximateProgramLength(ctx, ctx.kb()) +
                  ApproximateProgramLength(ctx, query);

  // Counting-loop plans are near-free and must be preferred: the loop runs
  // over compositions of N, not worlds.  Detecting eligibility needs the
  // compiled programs; reuse the context's cache and compile locally (a few
  // microseconds, uncached) only on a miss.
  auto kb_cached = ctx.CompiledIfCached(ctx.kb());
  auto query_cached = ctx.CompiledIfCached(query);
  semantics::CompiledFormula kb_local;
  semantics::CompiledFormula query_local;
  const semantics::Program* kb_program =
      kb_cached != nullptr && kb_cached->ok() ? kb_cached->program.get()
                                              : nullptr;
  if (kb_program == nullptr) {
    kb_local = semantics::CompileFormula(ctx.kb(), ctx.vocabulary());
    if (kb_local.ok()) kb_program = kb_local.program.get();
  }
  const semantics::Program* query_program =
      query_cached != nullptr && query_cached->ok()
          ? query_cached->program.get()
          : nullptr;
  if (query_program == nullptr) {
    query_local = semantics::CompileFormula(query, ctx.vocabulary());
    if (query_local.ok()) query_program = query_local.program.get();
  }
  if (kb_program != nullptr && query_program != nullptr) {
    std::optional<std::vector<int>> preds =
        CountingPredicates(*kb_program, *query_program);
    if (preds.has_value()) {
      inputs.counting_predicates = static_cast<int>(preds->size());
    }
  }
  return inputs;
}

CostEstimate ExactEngine::EstimateCost(const QueryContext& ctx,
                                       const logic::FormulaPtr& query,
                                       int domain_size) const {
  return EstimateCost(ctx, AnalyzeCost(ctx, query), domain_size);
}

CostEstimate ExactEngine::EstimateCost(const QueryContext& ctx,
                                       const CostInputs& inputs,
                                       int domain_size) const {
  CostEstimate cost;
  if (inputs.counting_predicates >= 0) {
    std::optional<double> compositions =
        CountingCompositions(inputs.counting_predicates, domain_size);
    if (compositions.has_value()) {
      cost.work = *compositions * inputs.length;
      cost.error = 0.0;
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "counting loop over %.3g compositions (%d predicates)",
                    *compositions, inputs.counting_predicates);
      cost.basis = buf;
      return cost;
    }
  }

  // Two evaluations (KB, then query on KB-worlds) per enumerated world.
  const double log2_worlds = Log2WorldCount(ctx.vocabulary(), domain_size);
  cost.work =
      log2_worlds >= 60.0 ? 1e20 : std::exp2(log2_worlds) * inputs.length;
  cost.error = 0.0;  // definitional computation
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "world odometer 2^%.1f x program length %.0f", log2_worlds,
                inputs.length);
  cost.basis = buf;
  return cost;
}

std::string ExactEngine::CacheSalt() const {
  // num_threads is deliberately absent: sharding merges in index order, so
  // results are bit-identical at every thread count.
  return "log2worlds=" + std::to_string(max_log2_worlds_);
}

FiniteResult ExactEngine::DegreeAtInContext(
    QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
    const semantics::ToleranceVector& tolerances) const {
  auto kb_compiled = ctx.Compiled(ctx.kb());
  auto query_compiled = ctx.Compiled(query);
  if (!ctx.caching_enabled()) {
    // The reference computation (the counting loop when eligible).
    return ComputeExact(ctx.vocabulary(), *kb_compiled, *query_compiled,
                        domain_size, tolerances, nullptr, num_threads_);
  }
  // Counting-eligible queries bypass the record-and-replay protocol
  // entirely (checked BEFORE the blob lookup, so the recorded world list
  // stays query-independent): the counting loop is cheaper than a replay
  // and bit-identical to it.
  if (kb_compiled->ok() && query_compiled->ok()) {
    const CountingPlan plan = PlanCounting(
        *kb_compiled->program, *query_compiled->program, domain_size);
    if (plan.eligible) {
      return ComputeByCounting(ctx.vocabulary(), *kb_compiled->program,
                               *query_compiled->program, domain_size,
                               tolerances, plan);
    }
  }
  std::string blob_key = "exact.worlds|" + std::to_string(domain_size) + "|" +
                         tolerances.CacheKey();
  return internal::LazyRecordReplay<ExactWorldList>(
      ctx, blob_key,
      [&](ExactWorldList* record) {
        return ComputeExact(ctx.vocabulary(), *kb_compiled, *query_compiled,
                            domain_size, tolerances, record, num_threads_);
      },
      [&](const ExactWorldList& worlds) {
        return ReplayExact(ctx.vocabulary(), worlds, *query_compiled,
                           domain_size, tolerances);
      });
}

}  // namespace rwl::engines
