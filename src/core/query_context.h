// QueryContext: the shared, memoizing state of one inference pipeline.
//
// A context pins down the (vocabulary, KB) pair a query — or a batch of
// queries — is answered against, and owns every piece of derived state the
// engines would otherwise recompute per call:
//
//   * the flattened KB conjunct list and the symbolic engine's KbAnalysis,
//   * the profile engine's constant-free / constant-dependent split and
//     its compiled leaf programs,
//   * a memo of finite-engine results keyed by (engine, query id, N, ⃗τ)
//     — node ids come from the hash-consed AST (logic/intern.h), so keys
//     are dense and exact,
//   * a type-erased cache of engine-derived state (e.g. the profile
//     engine's satisfying-world list per (N, ⃗τ), which makes every query
//     after the first a replay instead of a DFS),
//   * a bounded memo of finished answers (the service snapshot's answer
//     memo, service/catalog.h).
//
// All lookups are thread-safe: the limit-sweep worker pool shares one
// context across its workers, and the service layer (src/service/) runs
// many concurrent queries against one context.  Caching can be disabled
// (for testing and for measuring): the engines then recompute everything,
// and are required to produce bit-identical answers — the caches store
// only what the uncached path would have computed, in the same order.
//
// KB-version keying.  Every finite-memo and blob key is transparently
// prefixed with the context's version_salt() — a hash of the KB formula's
// dense hash-consed id and the vocabulary fingerprint — before it touches
// the underlying maps.  Within one context the prefix is a constant (a
// context pins one (vocabulary, KB) pair), but it makes entries portable:
// AdoptCachesFrom() can seed a successor context (a new KB version in the
// service catalog) with a predecessor's entries, and a stale hit against
// the old KB is impossible by construction — the old entries are keyed by
// the old salt and become reachable again only if a later mutation
// produces the identical (vocabulary, KB) pair, in which case they are
// exactly right.
#ifndef RWL_CORE_QUERY_CONTEXT_H_
#define RWL_CORE_QUERY_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/knowledge_base.h"
#include "src/logic/formula.h"
#include "src/logic/vocabulary.h"

namespace rwl::engines {
struct FiniteResult;
struct KbAnalysis;
struct ProfileKbProgram;
}  // namespace rwl::engines

namespace rwl::semantics {
struct CompiledFormula;
}  // namespace rwl::semantics

namespace rwl {

struct Answer;            // core/inference.h
struct InferenceOptions;  // core/inference.h

// The shape of one KB mutation, as seen by the incremental-maintenance
// path (QueryContext::ApplyDelta and the service catalog's background
// minting worker).  Computed by diffing predecessor and successor KBs —
// cheap, because the persistent conjunct vector recognizes shared prefixes
// by node pointer.
struct KbDelta {
  // No new symbols: the vocabulary fingerprints agree, so compiled
  // programs (and everything keyed per-vocabulary) stay valid.
  bool signature_preserving = false;
  // The successor is the predecessor plus `appended` (ASSERT).  False for
  // retractions and rewrites — those cannot be patched by filtering, only
  // adopted (salt revert) or rebuilt lazily.
  bool is_append = false;
  std::vector<logic::FormulaPtr> appended;

  bool patchable() const {
    return signature_preserving && is_append && !appended.empty();
  }
};

// Diffs two KB versions into the delta ApplyDelta consumes.
KbDelta ComputeKbDelta(const KnowledgeBase& from, const KnowledgeBase& to);

class QueryContext {
 public:
  // The vocabulary must already cover the KB and every query that will be
  // asked through this context (see MakeQueryContext in core/inference.h).
  QueryContext(logic::Vocabulary vocabulary, logic::FormulaPtr kb,
               bool caching_enabled = true);
  ~QueryContext();

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;
  QueryContext(QueryContext&&) noexcept;
  QueryContext& operator=(QueryContext&&) noexcept;

  const logic::Vocabulary& vocabulary() const { return vocabulary_; }
  const logic::FormulaPtr& kb() const { return kb_; }
  bool caching_enabled() const { return caching_enabled_; }

  // The KB-version salt every finite/blob key is qualified with: a hash of
  // (KB formula id, vocabulary fingerprint).  Equal salts mean cached
  // results are interchangeable; unequal salts mean they cannot collide.
  uint64_t version_salt() const { return version_salt_; }

  // Seeds this context's caches from a predecessor's (the copy-on-write
  // path of the service catalog: an ASSERT/RETRACT builds the successor
  // version's context and adopts what is still valid).
  //
  //   * finite-memo and blob entries salted for the predecessor's
  //     version or for THIS version (a mutation reverting to an earlier
  //     KB — the assert/retract round trip) are copied verbatim; entries
  //     for older versions are dropped (generational GC: without it a
  //     long-lived mutating tenant copies an ever-growing map per
  //     mutation).  Old-salted entries are unreachable from this context
  //     unless the salts match, in which case replaying them is exact;
  //   * compiled programs (keyed by formula id, valid per vocabulary) are
  //     adopted only when the vocabulary fingerprints agree;
  //   * KB-level analyses (conjuncts/split/analysis) are never adopted —
  //     they describe the predecessor's KB.
  //
  // Blob copies are charged against this context's budget; entries that
  // would exceed it are dropped (counted in blob_stores_dropped).  Must be
  // called before this context is shared across threads (the predecessor
  // may be live and is only read under its own lock).  No-op when either
  // context has caching disabled.
  void AdoptCachesFrom(const QueryContext& prior);

  // Incremental cache patching for a signature-preserving append mutation
  // (the service catalog's ASSERT fast path).  Call after AdoptCachesFrom
  // and before this context is shared across threads.  When the delta is
  // patchable this
  //
  //   * re-salts the predecessor's recorded world lists (profile and
  //     exact engines) to THIS version after filtering each recorded
  //     world through the appended conjuncts — O(worlds × |delta|)
  //     instead of a fresh DFS/odometer sweep, and bit-identical to one:
  //     the survivors are exactly the new KB's worlds, in the same
  //     enumeration order, with unchanged log-weights;
  //   * pre-computes the KB-level analyses (conjuncts/split/analysis)
  //     through the exact code paths the lazy accessors use, so the first
  //     post-mutation query finds them warm.
  //
  // Returns true when the delta was patched; false when it forces the
  // rebuild path (vocabulary-extending mutation, retraction to a novel
  // state) — the caches then repopulate lazily, which the two-salt
  // adoption window above already makes correct.  Counted in
  // cache_stats().deltas_patched / deltas_rebuilt.
  bool ApplyDelta(const QueryContext& prior, const KbDelta& delta);

  // Pre-computes the lazily-derived KB analyses (used by the maintenance
  // worker on the rebuild path, so even an unpatchable mutation pays its
  // O(KB) analysis cost off the request path).
  void PrewarmAnalyses() const;

  // Eager world-list recording: record on the FIRST computation at each
  // sweep point instead of the second (see engines/world_cache.h).  The
  // service catalog enables this on snapshot contexts — a recorded list
  // is what ApplyDelta patches, and service tenants re-ask the same sweep
  // points for the lifetime of the KB, so recording up front is the right
  // trade there.  Must be set before the context is shared.
  void set_eager_world_recording(bool eager) { eager_world_recording_ = eager; }
  bool eager_world_recording() const { return eager_world_recording_; }

  // ---- Memoized KB-level analyses (computed once, shared by engines) ----

  // Flattened conjunct list of the KB.
  const std::vector<logic::FormulaPtr>& kb_conjuncts() const;

  // The profile engine's split: conjuncts mentioning no constant
  // (evaluated once per profile) vs. the rest (evaluated per placement).
  struct KbSplit {
    logic::FormulaPtr constant_free;
    logic::FormulaPtr constant_dependent;
  };
  const KbSplit& kb_split() const;

  // The symbolic engine's flattened statistical view of the KB.
  const engines::KbAnalysis& kb_analysis() const;

  // The profile engine's compiled leaf programs for kb_split(), built on
  // the first profile sweep through this context (engines/profile_engine.h;
  // with caching disabled the engine compiles per call instead).
  std::shared_ptr<const engines::ProfileKbProgram> profile_kb_program() const;

  // ---- Compiled-program cache ----
  //
  // The bytecode program (semantics/compile.h) for a formula against this
  // context's vocabulary, memoized by the formula's dense node id.  A
  // program depends only on (formula, vocabulary) — compilation is
  // deterministic and carries no query results — but the memo still honors
  // caching_enabled() so the uncached measurement mode recompiles from
  // scratch (bit-identically).  Never returns null; compile failures are
  // carried inside the CompiledFormula.
  std::shared_ptr<const semantics::CompiledFormula> Compiled(
      const logic::FormulaPtr& f) const;

  // The cached program if one exists, else null — never compiles.  The
  // planner's cost models peek here: an exact program length when an
  // engine already compiled the formula, a cheap structural estimate
  // otherwise (compiling everything up front would make planning cost
  // more than small queries themselves).
  std::shared_ptr<const semantics::CompiledFormula> CompiledIfCached(
      const logic::FormulaPtr& f) const;

  // ---- Finite-result memo ----
  //
  // Keys are exact serializations (engine name + options salt + query id +
  // N + ⃗τ bits); equality of keys implies equality of the computation.
  // Lookup returns false (and Store is a no-op) when caching is disabled.
  // Results with exhausted = true are never stored: exhaustion reflects
  // the execution environment (budgets, deadlines), not the key.
  bool LookupFinite(const std::string& key, engines::FiniteResult* out) const;
  void StoreFinite(const std::string& key, const engines::FiniteResult& value);

  // ---- Type-erased derived-state cache ----
  //
  // Engines park arbitrary shared state here (profile world lists, maxent
  // solutions, ...) under the same exact-key discipline.  Returns nullptr
  // (and Store is a no-op) when caching is disabled.  `bytes_hint` is the
  // approximate payload size, charged against a per-context aggregate
  // budget: a store that would exceed it is dropped (callers then simply
  // recompute — the caches are transparent), so one batch cannot pin
  // unbounded memory no matter how many sweep points it records.
  std::shared_ptr<const void> LookupBlob(const std::string& key) const;
  void StoreBlob(const std::string& key, std::shared_ptr<const void> blob,
                 size_t bytes_hint = 0);

  // Aggregate budget for sized blobs (world lists); overwriting a key
  // refunds the old entry's charge.
  static constexpr size_t kBlobBudgetBytes = 256u << 20;

  // ---- Final-answer memo ----
  //
  // Finished answers under exact caller-built keys (the service catalog's
  // AnswerMemoKey: query id plus every answer-affecting option).  A context
  // pins one (vocabulary, KB) pair, so a degree of belief is a pure
  // function of such a key.  Each entry keeps the query and options that
  // produced it, so a successor snapshot can replay them (KbCatalog's
  // publish-when-warm minting).  Entries are never adopted across
  // versions and never evicted: a store beyond kMaxMemoizedAnswers is
  // dropped.  An answer whose PlanTrace reports deadline_hit is never
  // stored — like an exhausted FiniteResult, it reflects the execution
  // environment, not the key.  Lookup returns null (and Store is a no-op)
  // when caching is disabled.
  struct MemoizedAnswer {
    logic::FormulaPtr query;
    std::shared_ptr<const InferenceOptions> options;
    std::shared_ptr<const Answer> answer;
    // Answered through this context (the query adds no symbol to its
    // vocabulary) rather than through a private one over the same KB:
    // only these warm this context's caches when replayed.
    bool shared_context = false;
  };
  static constexpr size_t kMaxMemoizedAnswers = 1024;
  std::shared_ptr<const MemoizedAnswer> LookupAnswer(
      const std::string& key) const;
  void StoreAnswer(const std::string& key,
                   std::shared_ptr<const MemoizedAnswer> entry);
  // Every entry, in the order it was stored.
  std::vector<std::shared_ptr<const MemoizedAnswer>> MemoizedAnswers() const;

  struct CacheStats {
    uint64_t finite_hits = 0;
    uint64_t finite_misses = 0;
    uint64_t blob_hits = 0;
    uint64_t blob_misses = 0;
    uint64_t blob_bytes = 0;          // charged against kBlobBudgetBytes
    uint64_t blob_stores_dropped = 0;  // stores rejected over budget
    // Incremental-maintenance counters (ApplyDelta / PrewarmAnalyses).
    uint64_t deltas_patched = 0;       // ApplyDelta took the patch path
    uint64_t deltas_rebuilt = 0;       // delta forced the rebuild path
    uint64_t world_lists_patched = 0;  // recorded lists re-salted by filter
    uint64_t world_lists_dropped = 0;  // adopted lists a patch could not carry
    uint64_t analyses_prewarmed = 0;   // KB analyses computed off-request-path
    // Answer-memo lookups (a successor's publish-time replay counts as
    // misses on the successor).
    uint64_t answer_hits = 0;
    uint64_t answer_misses = 0;
  };
  CacheStats cache_stats() const;

 private:
  struct Impl;

  logic::Vocabulary vocabulary_;
  logic::FormulaPtr kb_;
  bool caching_enabled_;
  bool eager_world_recording_ = false;
  uint64_t version_salt_ = 0;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rwl

#endif  // RWL_CORE_QUERY_CONTEXT_H_
