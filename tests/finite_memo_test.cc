// Regression tests for the QueryContext finite-result memo.
//
// 1. FiniteResults with exhausted = true must never enter the memo:
//    exhaustion reflects an execution resource (a work budget, a
//    deadline) rather than the semantics of the memo key, so a
//    budget-limited failure at a small budget must not poison a later
//    call made with a larger budget.
//
// 2. Memo keys must include the KB VERSION (the version_salt over the KB
//    formula id and vocabulary fingerprint): when the service catalog
//    adopts a predecessor context's caches across an ASSERT/RETRACT, a
//    stale post-mutation hit — replaying the old KB's Pr_N^τ against the
//    new KB — must be impossible, while a mutation sequence that reverts
//    to an identical KB must make the adopted entries valid hits again.
#include <string>

#include <gtest/gtest.h>

#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/engine.h"
#include "src/logic/parser.h"
#include "src/logic/vocabulary.h"
#include "src/semantics/compile.h"
#include "src/semantics/tolerance.h"

namespace rwl {
namespace {

// A stub engine whose work budget is an execution resource — like the
// planner's deadlines, it is deliberately NOT part of the cache salt, so
// two calls at different budgets share a memo key.
class BudgetedStubEngine : public engines::FiniteEngine {
 public:
  std::string name() const override { return "budgeted-stub"; }

  bool Supports(const QueryContext&, const logic::FormulaPtr&,
                int) const override {
    return true;
  }

  mutable int calls = 0;
  int budget = 1;

 protected:
  engines::FiniteResult DegreeAtInContext(
      QueryContext&, const logic::FormulaPtr&, int,
      const semantics::ToleranceVector&) const override {
    ++calls;
    engines::FiniteResult result;
    if (budget < 10) {
      result.exhausted = true;
      return result;
    }
    result.well_defined = true;
    result.probability = 0.25;
    result.log_numerator = -1.0;
    result.log_denominator = 0.0;
    return result;
  }
};

struct Fixture {
  logic::Vocabulary vocabulary;
  logic::FormulaPtr query;

  Fixture() {
    vocabulary.AddPredicate("P", 1);
    vocabulary.AddFunction("c", 0);
    query = logic::ParseFormula("P(c)").formula;
  }
};

TEST(FiniteMemoTest, ExhaustedResultIsNotMemoized) {
  Fixture f;
  QueryContext ctx(f.vocabulary, logic::Formula::True(),
                   /*caching_enabled=*/true);
  semantics::ToleranceVector tolerances =
      semantics::ToleranceVector::Uniform(0.1);

  BudgetedStubEngine engine;
  engines::FiniteResult starved = engine.DegreeAt(ctx, f.query, 4, tolerances);
  EXPECT_TRUE(starved.exhausted);
  EXPECT_EQ(engine.calls, 1);

  // With a larger budget the same key must recompute, not replay the
  // starved failure.
  engine.budget = 100;
  engines::FiniteResult retried = engine.DegreeAt(ctx, f.query, 4, tolerances);
  EXPECT_FALSE(retried.exhausted);
  EXPECT_TRUE(retried.well_defined);
  EXPECT_DOUBLE_EQ(retried.probability, 0.25);
  EXPECT_EQ(engine.calls, 2);
}

TEST(FiniteMemoTest, SuccessfulResultStillMemoizes) {
  Fixture f;
  QueryContext ctx(f.vocabulary, logic::Formula::True(),
                   /*caching_enabled=*/true);
  semantics::ToleranceVector tolerances =
      semantics::ToleranceVector::Uniform(0.1);

  BudgetedStubEngine engine;
  engine.budget = 100;
  engines::FiniteResult first = engine.DegreeAt(ctx, f.query, 4, tolerances);
  engines::FiniteResult second = engine.DegreeAt(ctx, f.query, 4, tolerances);
  EXPECT_EQ(engine.calls, 1) << "well-defined results must still be cached";
  EXPECT_DOUBLE_EQ(first.probability, second.probability);

  QueryContext::CacheStats stats = ctx.cache_stats();
  EXPECT_EQ(stats.finite_hits, 1u);
}

TEST(FiniteMemoTest, ExhaustedStaysUncachedAcrossRepeats) {
  Fixture f;
  QueryContext ctx(f.vocabulary, logic::Formula::True(),
                   /*caching_enabled=*/true);
  semantics::ToleranceVector tolerances =
      semantics::ToleranceVector::Uniform(0.1);

  BudgetedStubEngine engine;
  engine.DegreeAt(ctx, f.query, 4, tolerances);
  engine.DegreeAt(ctx, f.query, 4, tolerances);
  // Both starved calls recomputed: the memo holds nothing for this key.
  EXPECT_EQ(engine.calls, 2);
  EXPECT_EQ(ctx.cache_stats().finite_hits, 0u);
}

// A stub whose Pr_N^τ depends on the KB formula, so replaying a memo
// entry against the wrong KB version is detectable in the probability.
class KbDependentStubEngine : public engines::FiniteEngine {
 public:
  std::string name() const override { return "kb-stub"; }

  bool Supports(const QueryContext&, const logic::FormulaPtr&,
                int) const override {
    return true;
  }

  mutable int calls = 0;

 protected:
  engines::FiniteResult DegreeAtInContext(
      QueryContext& ctx, const logic::FormulaPtr&, int,
      const semantics::ToleranceVector&) const override {
    ++calls;
    engines::FiniteResult result;
    result.well_defined = true;
    const logic::FormulaPtr& kb = ctx.kb();
    result.probability =
        kb != nullptr && kb->kind() == logic::Formula::Kind::kAtom ? 0.25
                                                                   : 0.75;
    return result;
  }
};

TEST(FiniteMemoTest, StaleHitImpossibleAfterMutationWithAdoptedCaches) {
  Fixture f;
  semantics::ToleranceVector tolerances =
      semantics::ToleranceVector::Uniform(0.1);
  logic::FormulaPtr kb_v1 = logic::ParseFormula("P(c)").formula;   // atom
  logic::FormulaPtr kb_v2 = logic::ParseFormula("!P(c)").formula;  // not

  KbDependentStubEngine engine;
  QueryContext v1(f.vocabulary, kb_v1, /*caching_enabled=*/true);
  engines::FiniteResult r1 = engine.DegreeAt(v1, f.query, 4, tolerances);
  EXPECT_DOUBLE_EQ(r1.probability, 0.25);
  EXPECT_EQ(engine.calls, 1);

  // The service catalog's copy-on-write path: the successor version's
  // context adopts EVERY cache entry of its predecessor.  The memo key's
  // KB-version salt is the only thing standing between the new KB and a
  // stale replay of the old result.
  QueryContext v2(f.vocabulary, kb_v2, /*caching_enabled=*/true);
  v2.AdoptCachesFrom(v1);
  ASSERT_NE(v1.version_salt(), v2.version_salt());
  engines::FiniteResult r2 = engine.DegreeAt(v2, f.query, 4, tolerances);
  EXPECT_DOUBLE_EQ(r2.probability, 0.75)
      << "post-mutation lookup replayed the pre-mutation result";
  EXPECT_EQ(engine.calls, 2) << "the new KB version must recompute";

  // A further mutation reverting to the original KB produces the original
  // (formula id, vocabulary) pair — hash-consing guarantees the same
  // formula id — so the entries adopted through the whole chain become
  // valid hits again: incremental maintenance reuses, never leaks.
  QueryContext v3(f.vocabulary, kb_v1, /*caching_enabled=*/true);
  v3.AdoptCachesFrom(v2);
  ASSERT_EQ(v3.version_salt(), v1.version_salt());
  engines::FiniteResult r3 = engine.DegreeAt(v3, f.query, 4, tolerances);
  EXPECT_DOUBLE_EQ(r3.probability, 0.25);
  EXPECT_EQ(engine.calls, 2) << "identical KB version must hit the memo";
  EXPECT_EQ(v3.cache_stats().finite_hits, 1u);
}

TEST(FiniteMemoTest, VocabularyExtendingMutationRebuildsInsteadOfPatching) {
  // The incremental-maintenance fast path (ApplyDelta) may only re-salt
  // recorded state when the mutation preserves the signature.  A mutation
  // that introduces a new symbol must diff as unpatchable, take the
  // rebuild path, and leave the predecessor's memo entries unreachable —
  // while a signature-preserving append diffs as patchable.
  std::string error;
  KnowledgeBase base;
  ASSERT_TRUE(base.AddParsed("P(C)\n", &error)) << error;

  KnowledgeBase widened = base;  // persistent copy
  ASSERT_TRUE(widened.AddParsed("Q(C)\n", &error)) << error;  // new predicate
  KbDelta widening = ComputeKbDelta(base, widened);
  EXPECT_FALSE(widening.signature_preserving);
  EXPECT_FALSE(widening.patchable());

  KnowledgeBase appended = base;
  ASSERT_TRUE(appended.AddParsed("!P(C)\n", &error)) << error;  // no new symbol
  KbDelta append = ComputeKbDelta(base, appended);
  EXPECT_TRUE(append.signature_preserving);
  EXPECT_TRUE(append.patchable());

  // Seed the predecessor's memo, then mutate across the signature change.
  semantics::ToleranceVector tolerances =
      semantics::ToleranceVector::Uniform(0.1);
  logic::FormulaPtr query = logic::ParseFormula("P(C)").formula;
  KbDependentStubEngine engine;
  QueryContext v1(base.vocabulary(), base.AsFormula(),
                  /*caching_enabled=*/true);
  engine.DegreeAt(v1, query, 4, tolerances);
  EXPECT_EQ(engine.calls, 1);

  QueryContext v2(widened.vocabulary(), widened.AsFormula(),
                  /*caching_enabled=*/true);
  v2.AdoptCachesFrom(v1);
  EXPECT_FALSE(v2.ApplyDelta(v1, widening)) << "unpatchable delta was patched";
  QueryContext::CacheStats stats = v2.cache_stats();
  EXPECT_EQ(stats.deltas_rebuilt, 1u);
  EXPECT_EQ(stats.deltas_patched, 0u);
  EXPECT_EQ(stats.world_lists_patched, 0u);

  // The adopted entry is salted for the old (KB, vocabulary) pair: the
  // widened context recomputes instead of replaying it.
  engine.DegreeAt(v2, query, 4, tolerances);
  EXPECT_EQ(engine.calls, 2) << "stale memo hit across a signature change";
  EXPECT_EQ(v2.cache_stats().finite_hits, 0u);
}

TEST(FiniteMemoTest, VocabularyChangeAlsoChangesTheVersionSalt) {
  Fixture f;
  logic::FormulaPtr kb = logic::ParseFormula("P(c)").formula;
  QueryContext original(f.vocabulary, kb, /*caching_enabled=*/true);

  // Same KB formula, extended vocabulary: world spaces differ, so the
  // salt must differ even though the formula id is unchanged — and
  // compiled programs (slot layouts depend on the signature) must not be
  // adopted across the change.
  std::shared_ptr<const semantics::CompiledFormula> compiled =
      original.Compiled(f.query);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(original.CompiledIfCached(f.query), nullptr);

  logic::Vocabulary extended = f.vocabulary;
  extended.AddPredicate("Extra", 1);
  QueryContext widened(extended, kb, /*caching_enabled=*/true);
  widened.AdoptCachesFrom(original);
  EXPECT_NE(widened.version_salt(), original.version_salt());
  EXPECT_EQ(widened.CompiledIfCached(f.query), nullptr)
      << "programs compiled for a different signature were adopted";

  // Same vocabulary: programs ARE adopted.
  QueryContext same(f.vocabulary, kb, /*caching_enabled=*/true);
  same.AdoptCachesFrom(original);
  EXPECT_EQ(same.version_salt(), original.version_salt());
  EXPECT_NE(same.CompiledIfCached(f.query), nullptr);
}

}  // namespace
}  // namespace rwl
