// QueryContext invariants: every engine answers identically through a
// caching context and a cache-free one — bit for bit — and the parallel
// limit sweep reproduces the serial one.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/exact_engine.h"
#include "src/engines/maxent_engine.h"
#include "src/engines/profile_engine.h"
#include "src/engines/symbolic_engine.h"
#include "src/logic/parser.h"
#include "src/logic/transform.h"
#include "src/testing/montecarlo_engine.h"

// Live heap bytes, tracked through the replaceable global allocation
// functions: a header in front of every block carries its size, so the
// budget test below can compare what a cached world list is charged with
// what it really keeps allocated.  Every non-aligned form is replaced, so
// no block crosses between this allocator and a sanitizer's.
namespace {
std::atomic<int64_t> live_heap_bytes{0};
constexpr size_t kHeader = alignof(std::max_align_t);

void* CountedAlloc(size_t size) noexcept {
  auto* block = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (block == nullptr) return nullptr;
  *reinterpret_cast<size_t*>(block) = size;
  live_heap_bytes.fetch_add(static_cast<int64_t>(size),
                            std::memory_order_relaxed);
  return block + kHeader;
}

void* CountedAllocOrThrow(size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  auto* block = static_cast<unsigned char*>(p) - kHeader;
  live_heap_bytes.fetch_sub(
      static_cast<int64_t>(*reinterpret_cast<size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}
}  // namespace

void* operator new(size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](size_t size) { return CountedAllocOrThrow(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace rwl {
namespace {

using engines::FiniteResult;

struct Fixture {
  KnowledgeBase kb;
  logic::FormulaPtr query;
  // Two further distinct queries: recording is lazy, so the first query at
  // a sweep point only marks it, the second records, the third replays.
  logic::FormulaPtr other_query;
  logic::FormulaPtr third_query;
  logic::Vocabulary vocabulary;
};

Fixture MakeFixture() {
  Fixture f;
  std::string error;
  bool ok = f.kb.AddParsed(
      "Jaun(Eric)\n"
      "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"
      "#(Fever(x) ; Hep(x))[x] ~= 0.6\n",
      &error);
  EXPECT_TRUE(ok) << error;
  f.query = logic::ParseFormula("Hep(Eric)").formula;
  f.other_query = logic::ParseFormula("Fever(Eric)").formula;
  f.third_query = logic::ParseFormula("Hep(Eric) & Fever(Eric)").formula;
  f.vocabulary = f.kb.vocabulary();
  logic::RegisterSymbols(f.query, &f.vocabulary);
  logic::RegisterSymbols(f.other_query, &f.vocabulary);
  logic::RegisterSymbols(f.third_query, &f.vocabulary);
  return f;
}

void ExpectBitIdentical(const FiniteResult& a, const FiniteResult& b) {
  EXPECT_EQ(a.well_defined, b.well_defined);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.log_numerator, b.log_numerator);
  EXPECT_EQ(a.log_denominator, b.log_denominator);
}

TEST(QueryContextCaching, ProfileRecordReplayMatchesCacheFree) {
  Fixture f = MakeFixture();
  engines::ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);
  QueryContext uncached(f.vocabulary, f.kb.AsFormula(), false);

  for (int n : {8, 16, 24}) {
    FiniteResult reference = profile.DegreeAt(uncached, f.query, n, tol);

    QueryContext cached(f.vocabulary, f.kb.AsFormula(), true);
    // First call marks the point, the second records the world list...
    profile.DegreeAt(cached, f.other_query, n, tol);
    profile.DegreeAt(cached, f.third_query, n, tol);
    // ...and the third call replays it for yet another query.
    FiniteResult replayed = profile.DegreeAt(cached, f.query, n, tol);
    ExpectBitIdentical(replayed, reference);
    // Memo: asking again returns the stored result.
    FiniteResult memoized = profile.DegreeAt(cached, f.query, n, tol);
    ExpectBitIdentical(memoized, reference);
  }
}

TEST(QueryContextCaching, ExactRecordReplayMatchesCacheFree) {
  Fixture f = MakeFixture();
  engines::ExactEngine exact;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.2);

  const int n = 3;
  QueryContext uncached(f.vocabulary, f.kb.AsFormula(), false);
  ASSERT_TRUE(exact.Supports(uncached, f.query, n));
  FiniteResult reference = exact.DegreeAt(uncached, f.query, n, tol);

  QueryContext cached(f.vocabulary, f.kb.AsFormula(), true);
  exact.DegreeAt(cached, f.other_query, n, tol);  // mark
  exact.DegreeAt(cached, f.third_query, n, tol);  // record
  ExpectBitIdentical(exact.DegreeAt(cached, f.query, n, tol), reference);
}

TEST(QueryContextCaching, MonteCarloMemoMatchesCacheFree) {
  Fixture f = MakeFixture();
  testing::MonteCarloEngine::Options options;
  options.num_samples = 20'000;
  testing::MonteCarloEngine montecarlo(options);
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.2);

  const int n = 8;
  QueryContext uncached(f.vocabulary, f.kb.AsFormula(), false);
  FiniteResult reference = montecarlo.DegreeAt(uncached, f.query, n, tol);
  QueryContext cached(f.vocabulary, f.kb.AsFormula(), true);
  ExpectBitIdentical(montecarlo.DegreeAt(cached, f.query, n, tol), reference);
  ExpectBitIdentical(montecarlo.DegreeAt(cached, f.query, n, tol), reference);
}

TEST(QueryContextCaching, MaxEntContextMatchesCacheFree) {
  Fixture f = MakeFixture();
  engines::MaxEntEngine maxent;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);

  QueryContext uncached(f.vocabulary, f.kb.AsFormula(), false);
  auto reference = maxent.InferLimit(uncached, f.query, tol);
  QueryContext cached(f.vocabulary, f.kb.AsFormula(), true);
  auto through_ctx = maxent.InferLimit(cached, f.query, tol);
  EXPECT_EQ(reference.supported, through_ctx.supported);
  EXPECT_EQ(reference.converged, through_ctx.converged);
  EXPECT_EQ(reference.value, through_ctx.value);
  EXPECT_EQ(reference.per_scale_values, through_ctx.per_scale_values);
}

TEST(QueryContextCaching, SymbolicContextMatchesCacheFree) {
  Fixture f = MakeFixture();
  engines::SymbolicEngine symbolic;
  QueryContext uncached(f.vocabulary, f.kb.AsFormula(), false);
  auto reference = symbolic.Infer(uncached, f.query);
  QueryContext cached(f.vocabulary, f.kb.AsFormula(), true);
  auto through_ctx = symbolic.Infer(cached, f.query);
  EXPECT_EQ(static_cast<int>(reference.status),
            static_cast<int>(through_ctx.status));
  EXPECT_EQ(reference.lo, through_ctx.lo);
  EXPECT_EQ(reference.hi, through_ctx.hi);
  EXPECT_EQ(reference.rule, through_ctx.rule);
  // Memoized second call.
  auto again = symbolic.Infer(cached, f.query);
  EXPECT_EQ(reference.lo, again.lo);
  EXPECT_EQ(reference.hi, again.hi);
}

TEST(QueryContextCaching, CacheStatsRecordHits) {
  Fixture f = MakeFixture();
  engines::ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);
  QueryContext ctx(f.vocabulary, f.kb.AsFormula(), true);
  profile.DegreeAt(ctx, f.query, 8, tol);
  profile.DegreeAt(ctx, f.query, 8, tol);
  QueryContext::CacheStats stats = ctx.cache_stats();
  EXPECT_GE(stats.finite_hits, 1u);
  EXPECT_GE(stats.finite_misses, 1u);
}

TEST(QueryContextIncremental, FirstQueryAfterPatchedAssertReplaysWorldLists) {
  // The service catalog's ASSERT fast path: a signature-preserving append
  // must leave the successor context warm — patched world lists, prewarmed
  // analyses — so the FIRST post-mutation query is a replay, not a DFS.
  Fixture f = MakeFixture();
  engines::ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);
  const int n = 8;

  QueryContext v1(f.vocabulary, f.kb.AsFormula(), true);
  v1.set_eager_world_recording(true);
  profile.DegreeAt(v1, f.query, n, tol);  // eager mode records on first call

  KnowledgeBase mutated = f.kb;  // persistent copy: shares the conjuncts
  std::string error;
  ASSERT_TRUE(mutated.AddParsed("Fever(Eric)\n", &error)) << error;
  KbDelta delta = ComputeKbDelta(f.kb, mutated);
  EXPECT_TRUE(delta.signature_preserving);
  EXPECT_TRUE(delta.is_append);
  ASSERT_TRUE(delta.patchable());

  QueryContext v2(f.vocabulary, mutated.AsFormula(), true);
  v2.set_eager_world_recording(true);
  v2.AdoptCachesFrom(v1);
  EXPECT_TRUE(v2.ApplyDelta(v1, delta));

  QueryContext::CacheStats patched_stats = v2.cache_stats();
  EXPECT_EQ(patched_stats.deltas_patched, 1u);
  EXPECT_EQ(patched_stats.deltas_rebuilt, 0u);
  EXPECT_GE(patched_stats.world_lists_patched, 1u);
  EXPECT_GE(patched_stats.analyses_prewarmed, 1u);

  // First post-mutation query: a blob hit on the patched list, and the
  // answer is bit-identical to a cache-free computation on the new KB.
  QueryContext v2_uncached(f.vocabulary, mutated.AsFormula(), false);
  FiniteResult fresh = profile.DegreeAt(v2_uncached, f.query, n, tol);
  FiniteResult replayed = profile.DegreeAt(v2, f.query, n, tol);
  ExpectBitIdentical(replayed, fresh);
  QueryContext::CacheStats queried_stats = v2.cache_stats();
  EXPECT_GT(queried_stats.blob_hits, patched_stats.blob_hits)
      << "the first post-mutation query should replay the patched list";
}

TEST(QueryContextIncremental, VocabularyExtendingAssertForcesRebuild) {
  // A mutation introducing a new symbol changes the world space: nothing
  // recorded under the old signature may be patched forward.  ApplyDelta
  // must take the rebuild path (the caches repopulate lazily, which the
  // version salt already makes correct) while still prewarming analyses.
  Fixture f = MakeFixture();
  engines::ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);
  const int n = 8;

  QueryContext v1(f.vocabulary, f.kb.AsFormula(), true);
  v1.set_eager_world_recording(true);
  profile.DegreeAt(v1, f.query, n, tol);

  KnowledgeBase mutated = f.kb;
  std::string error;
  ASSERT_TRUE(mutated.AddParsed("Jaun(Maria)\n", &error)) << error;  // new C
  KbDelta delta = ComputeKbDelta(f.kb, mutated);
  EXPECT_FALSE(delta.signature_preserving);
  EXPECT_FALSE(delta.patchable());

  QueryContext v2(mutated.vocabulary(), mutated.AsFormula(), true);
  v2.set_eager_world_recording(true);
  v2.AdoptCachesFrom(v1);
  EXPECT_FALSE(v2.ApplyDelta(v1, delta));

  QueryContext::CacheStats stats = v2.cache_stats();
  EXPECT_EQ(stats.deltas_rebuilt, 1u);
  EXPECT_EQ(stats.deltas_patched, 0u);
  EXPECT_EQ(stats.world_lists_patched, 0u);
  EXPECT_GE(stats.analyses_prewarmed, 1u)
      << "the rebuild path still pays the KB analyses off the request path";

  // Correctness is unaffected: the rebuilt context recomputes from scratch.
  QueryContext v2_uncached(mutated.vocabulary(), mutated.AsFormula(), false);
  FiniteResult fresh = profile.DegreeAt(v2_uncached, f.query, n, tol);
  ExpectBitIdentical(profile.DegreeAt(v2, f.query, n, tol), fresh);
}

TEST(QueryContextBudget, OversizedBlobIsDroppedOutright) {
  Fixture f = MakeFixture();
  QueryContext ctx(f.vocabulary, f.kb.AsFormula(), true);
  auto blob = std::make_shared<int>(7);
  ctx.StoreBlob("oversized", blob, QueryContext::kBlobBudgetBytes + 1);
  EXPECT_EQ(ctx.LookupBlob("oversized"), nullptr);
  QueryContext::CacheStats stats = ctx.cache_stats();
  EXPECT_EQ(stats.blob_stores_dropped, 1u);
  EXPECT_EQ(stats.blob_bytes, 0u) << "a dropped store must not be charged";
}

TEST(QueryContextBudget, EngineDegradesGracefullyWhenBudgetIsFull) {
  // Saturate the 256 MiB blob budget with one (hint-only) entry standing
  // in for an oversized satisfying-world record, then run the engines:
  // their world-list stores must be dropped — no cache — while every
  // answer stays bit-identical to the cache-free computation.
  Fixture f = MakeFixture();
  engines::ProfileEngine profile;
  engines::ExactEngine exact;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.1);

  QueryContext ctx(f.vocabulary, f.kb.AsFormula(), true);
  ctx.StoreBlob("pin", std::make_shared<int>(0),
                QueryContext::kBlobBudgetBytes);
  ASSERT_EQ(ctx.cache_stats().blob_bytes, QueryContext::kBlobBudgetBytes);
  QueryContext uncached(f.vocabulary, f.kb.AsFormula(), false);

  for (int n : {8, 16}) {
    FiniteResult reference = profile.DegreeAt(uncached, f.query, n, tol);
    // Three distinct queries drive the record-replay protocol through
    // mark → (dropped) record → recompute.
    profile.DegreeAt(ctx, f.other_query, n, tol);
    profile.DegreeAt(ctx, f.third_query, n, tol);
    ExpectBitIdentical(profile.DegreeAt(ctx, f.query, n, tol), reference);
  }
  const int exact_n = 3;
  FiniteResult reference = exact.DegreeAt(uncached, f.query, exact_n, tol);
  exact.DegreeAt(ctx, f.other_query, exact_n, tol);
  exact.DegreeAt(ctx, f.third_query, exact_n, tol);
  ExpectBitIdentical(exact.DegreeAt(ctx, f.query, exact_n, tol), reference);

  QueryContext::CacheStats stats = ctx.cache_stats();
  EXPECT_GE(stats.blob_stores_dropped, 3u)
      << "world-list records should have been rejected over budget";
  EXPECT_EQ(stats.blob_bytes, QueryContext::kBlobBudgetBytes)
      << "dropped stores must leave the charge untouched";
}

TEST(QueryContextBudget, WorldListChargeCoversItsAllocation) {
  // A recorded world list must be charged for all the memory it keeps —
  // per-leaf storage and vector capacity included — or the 256 MiB budget
  // admits more than it says.  Two contexts run the same first query at
  // one point; one records the list (eager mode), the other only leaves a
  // marker, so the difference in retained heap is the list itself.
  Fixture f = MakeFixture();
  engines::ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);
  const int n = 24;
  {
    // Warm every lazily built static the computation touches.
    QueryContext warm(f.vocabulary, f.kb.AsFormula(), true);
    profile.DegreeAt(warm, f.query, n, tol);
  }
  QueryContext marked(f.vocabulary, f.kb.AsFormula(), true);
  QueryContext recorded(f.vocabulary, f.kb.AsFormula(), true);
  recorded.set_eager_world_recording(true);

  int64_t before = live_heap_bytes.load();
  profile.DegreeAt(marked, f.query, n, tol);
  const int64_t marked_growth = live_heap_bytes.load() - before;
  before = live_heap_bytes.load();
  profile.DegreeAt(recorded, f.query, n, tol);
  const int64_t recorded_growth = live_heap_bytes.load() - before;

  const int64_t list_bytes = recorded_growth - marked_growth;
  const uint64_t charged = recorded.cache_stats().blob_bytes;
  ASSERT_GT(list_bytes, 64 * 1024) << "the point should record a real list";
  EXPECT_GE(charged, static_cast<uint64_t>(list_bytes))
      << "charged " << charged << " bytes for a list retaining "
      << list_bytes;
  EXPECT_LE(charged, 2 * static_cast<uint64_t>(list_bytes));
}

TEST(EstimateLimitParallel, MatchesSerialSweepBitwise) {
  Fixture f = MakeFixture();
  engines::ProfileEngine profile;
  semantics::ToleranceVector tol = semantics::ToleranceVector::Uniform(0.05);

  engines::LimitOptions serial;
  serial.domain_sizes = {4, 8, 12, 16, 24};
  serial.num_threads = 1;
  engines::LimitOptions pooled = serial;
  pooled.num_threads = 4;

  QueryContext ctx_serial(f.vocabulary, f.kb.AsFormula(), false);
  QueryContext ctx_pooled(f.vocabulary, f.kb.AsFormula(), false);
  engines::LimitResult a =
      engines::EstimateLimit(profile, ctx_serial, f.query, tol, serial);
  engines::LimitResult b =
      engines::EstimateLimit(profile, ctx_pooled, f.query, tol, pooled);

  EXPECT_EQ(a.value.has_value(), b.value.has_value());
  if (a.value.has_value()) EXPECT_EQ(*a.value, *b.value);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.never_defined, b.never_defined);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].domain_size, b.series[i].domain_size);
    EXPECT_EQ(a.series[i].tolerance_scale, b.series[i].tolerance_scale);
    EXPECT_EQ(a.series[i].probability, b.series[i].probability);
    EXPECT_EQ(a.series[i].well_defined, b.series[i].well_defined);
  }
}

}  // namespace
}  // namespace rwl
