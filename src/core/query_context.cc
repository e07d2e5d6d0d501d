#include "src/core/query_context.h"

#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/core/inference.h"
#include "src/core/planner.h"
#include "src/engines/engine.h"
#include "src/engines/exact_engine.h"
#include "src/engines/profile_engine.h"
#include "src/engines/symbolic_engine.h"
#include "src/logic/intern.h"
#include "src/logic/transform.h"
#include "src/semantics/compile.h"

namespace rwl {
namespace {

// "<salt>\x1f": '\x1f' (unit separator) cannot appear in the numeric
// salt, so a qualified key splits unambiguously.
std::string SaltPrefix(uint64_t salt) {
  std::string prefix = std::to_string(salt);
  prefix += '\x1f';
  return prefix;
}

// Qualifies an engine-supplied key with a precomputed salt prefix (one
// concatenation; the prefix itself is built once per context — the cache
// paths run on every query of the service's hot loop).
std::string QualifiedKey(const std::string& salt_prefix,
                         const std::string& key) {
  std::string qualified;
  qualified.reserve(salt_prefix.size() + key.size());
  qualified += salt_prefix;
  qualified += key;
  return qualified;
}

}  // namespace

KbDelta ComputeKbDelta(const KnowledgeBase& from, const KnowledgeBase& to) {
  KbDelta delta;
  delta.signature_preserving =
      from.vocabulary().Fingerprint() == to.vocabulary().Fingerprint();
  // Formulas are hash-consed, so prefix detection is pointer equality —
  // and the persistent vector short-circuits whole shared chunks.
  if (to.conjuncts().size() >= from.conjuncts().size() &&
      to.conjuncts().StartsWith(from.conjuncts())) {
    delta.is_append = true;
    for (size_t i = from.conjuncts().size(); i < to.conjuncts().size(); ++i) {
      delta.appended.push_back(to.conjuncts()[i]);
    }
  }
  return delta;
}

struct QueryContext::Impl {
  // The version_salt() rendered once for key qualification.
  std::string salt_prefix;
  mutable std::mutex mutex;

  // Lazily computed KB-level analyses.  Guarded by `mutex`; computed at
  // most once and then immutable.
  std::optional<std::vector<logic::FormulaPtr>> conjuncts;
  std::optional<KbSplit> split;
  std::optional<engines::KbAnalysis> analysis;
  std::shared_ptr<const engines::ProfileKbProgram> profile_program;

  struct BlobEntry {
    std::shared_ptr<const void> blob;
    size_t bytes = 0;
  };

  std::unordered_map<std::string, engines::FiniteResult> finite;
  std::unordered_map<std::string, BlobEntry> blobs;
  std::unordered_map<uint64_t, std::shared_ptr<const semantics::CompiledFormula>>
      programs;

  // The answer memo has its own lock: a hit must not queue behind engine
  // work contending for `mutex`.  `answer_order` lists entries in store
  // order for replay.
  mutable std::mutex answer_mutex;
  std::unordered_map<std::string, std::shared_ptr<const MemoizedAnswer>>
      answers;
  std::vector<std::shared_ptr<const MemoizedAnswer>> answer_order;
  mutable uint64_t answer_hits = 0;
  mutable uint64_t answer_misses = 0;

  mutable CacheStats stats;
};

QueryContext::QueryContext(logic::Vocabulary vocabulary, logic::FormulaPtr kb,
                           bool caching_enabled)
    : vocabulary_(std::move(vocabulary)),
      kb_(std::move(kb)),
      caching_enabled_(caching_enabled),
      impl_(std::make_unique<Impl>()) {
  version_salt_ = logic::HashCombine(
      logic::HashMix(kb_ == nullptr ? 0 : kb_->id()),
      vocabulary_.Fingerprint());
  impl_->salt_prefix = SaltPrefix(version_salt_);
}

QueryContext::~QueryContext() = default;
QueryContext::QueryContext(QueryContext&&) noexcept = default;
QueryContext& QueryContext::operator=(QueryContext&&) noexcept = default;

const std::vector<logic::FormulaPtr>& QueryContext::kb_conjuncts() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->conjuncts.has_value()) {
    impl_->conjuncts = logic::Conjuncts(kb_);
  }
  return *impl_->conjuncts;
}

const QueryContext::KbSplit& QueryContext::kb_split() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->split.has_value()) {
    logic::ConstantSplit split = logic::SplitByConstants(kb_);
    impl_->split = KbSplit{std::move(split.constant_free),
                           std::move(split.constant_dependent)};
  }
  return *impl_->split;
}

const engines::KbAnalysis& QueryContext::kb_analysis() const {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->analysis.has_value()) return *impl_->analysis;
  }
  // AnalyzeKb allocates formulas (arena locks); compute outside our mutex
  // and racily adopt the first result — the computation is deterministic.
  engines::KbAnalysis computed = engines::AnalyzeKb(kb_);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->analysis.has_value()) impl_->analysis = std::move(computed);
  return *impl_->analysis;
}

std::shared_ptr<const engines::ProfileKbProgram>
QueryContext::profile_kb_program() const {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->profile_program != nullptr) return impl_->profile_program;
  }
  // Compiled outside our mutex (kb_split takes it) and racily adopted, like
  // kb_analysis: compilation is deterministic.
  const KbSplit& split = kb_split();
  auto compiled = engines::CompileProfileKb(
      vocabulary_, split.constant_free, split.constant_dependent);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->profile_program == nullptr) {
    impl_->profile_program = std::move(compiled);
  }
  return impl_->profile_program;
}

std::shared_ptr<const semantics::CompiledFormula> QueryContext::Compiled(
    const logic::FormulaPtr& f) const {
  const uint64_t id = f == nullptr ? 0 : f->id();
  if (caching_enabled_) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->programs.find(id);
    if (it != impl_->programs.end()) return it->second;
  }
  // Compile outside the lock (deterministic, so racing adopters agree).
  auto compiled = std::make_shared<const semantics::CompiledFormula>(
      semantics::CompileFormula(f, vocabulary_));
  if (caching_enabled_) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto [it, inserted] = impl_->programs.emplace(id, compiled);
    return it->second;
  }
  return compiled;
}

std::shared_ptr<const semantics::CompiledFormula>
QueryContext::CompiledIfCached(const logic::FormulaPtr& f) const {
  if (!caching_enabled_) return nullptr;
  const uint64_t id = f == nullptr ? 0 : f->id();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->programs.find(id);
  return it != impl_->programs.end() ? it->second : nullptr;
}

bool QueryContext::LookupFinite(const std::string& key,
                                engines::FiniteResult* out) const {
  if (!caching_enabled_) return false;
  // Key qualification allocates; keep it (like every qualification below)
  // outside the critical section — these paths run on every query of the
  // service's hot loop, with many threads sharing one context.
  const std::string qualified = QualifiedKey(impl_->salt_prefix, key);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->finite.find(qualified);
  if (it == impl_->finite.end()) {
    ++impl_->stats.finite_misses;
    return false;
  }
  ++impl_->stats.finite_hits;
  *out = it->second;
  return true;
}

void QueryContext::StoreFinite(const std::string& key,
                               const engines::FiniteResult& value) {
  if (!caching_enabled_) return;
  // Never memoize a budget-exhausted result: exhaustion reflects the
  // execution environment (work budgets, deadlines), not the semantics of
  // the key.  A failure at a small budget must not poison a later retry
  // that could afford the computation.
  if (value.exhausted) return;
  std::string qualified = QualifiedKey(impl_->salt_prefix, key);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->finite.emplace(std::move(qualified), value);
}

std::shared_ptr<const void> QueryContext::LookupBlob(
    const std::string& key) const {
  if (!caching_enabled_) return nullptr;
  const std::string qualified = QualifiedKey(impl_->salt_prefix, key);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->blobs.find(qualified);
  if (it == impl_->blobs.end()) {
    ++impl_->stats.blob_misses;
    return nullptr;
  }
  ++impl_->stats.blob_hits;
  return it->second.blob;
}

void QueryContext::StoreBlob(const std::string& key,
                             std::shared_ptr<const void> blob,
                             size_t bytes_hint) {
  if (!caching_enabled_) return;
  const std::string qualified = QualifiedKey(impl_->salt_prefix, key);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->blobs.find(qualified);
  size_t refund = it != impl_->blobs.end() ? it->second.bytes : 0;
  if (impl_->stats.blob_bytes - refund + bytes_hint > kBlobBudgetBytes) {
    ++impl_->stats.blob_stores_dropped;
    return;
  }
  impl_->stats.blob_bytes += bytes_hint - refund;
  // Overwrite semantics: engines upgrade "seen once" markers to recorded
  // world lists on the second visit.
  impl_->blobs.insert_or_assign(qualified,
                                Impl::BlobEntry{std::move(blob), bytes_hint});
}

std::shared_ptr<const QueryContext::MemoizedAnswer> QueryContext::LookupAnswer(
    const std::string& key, bool count_miss) const {
  if (!caching_enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(impl_->answer_mutex);
  auto it = impl_->answers.find(key);
  if (it == impl_->answers.end()) {
    if (count_miss) ++impl_->answer_misses;
    return nullptr;
  }
  ++impl_->answer_hits;
  return it->second;
}

void QueryContext::StoreAnswer(const std::string& key,
                               std::shared_ptr<const MemoizedAnswer> entry) {
  if (!caching_enabled_) return;
  const std::shared_ptr<const PlanTrace>& plan = entry->answer->plan;
  if (plan != nullptr && plan->deadline_hit) return;
  std::lock_guard<std::mutex> lock(impl_->answer_mutex);
  if (impl_->answers.size() >= kMaxMemoizedAnswers) return;
  auto [it, inserted] = impl_->answers.emplace(key, entry);
  if (inserted) impl_->answer_order.push_back(std::move(entry));
}

std::vector<std::shared_ptr<const QueryContext::MemoizedAnswer>>
QueryContext::MemoizedAnswers() const {
  std::lock_guard<std::mutex> lock(impl_->answer_mutex);
  return impl_->answer_order;
}

void QueryContext::AdoptCachesFrom(const QueryContext& prior) {
  if (!caching_enabled_ || !prior.caching_enabled_) return;
  if (&prior == this) return;
  // Generational GC along the version chain: only entries salted for the
  // predecessor's KB version or for THIS version (a mutation that reverts
  // to an earlier KB — the assert/retract round trip) are carried
  // forward.  Entries for older versions are dead weight: without this
  // filter a long-lived mutating tenant would copy an ever-growing map on
  // every mutation and pin memory for versions that can never be read
  // again except through this same two-salt window.
  const std::string& keep_prior = prior.impl_->salt_prefix;
  const std::string& keep_self = impl_->salt_prefix;
  auto live = [&](const std::string& key) {
    return key.compare(0, keep_prior.size(), keep_prior) == 0 ||
           key.compare(0, keep_self.size(), keep_self) == 0;
  };
  // Only the predecessor's lock is taken: this context is still private to
  // its constructor's thread (the catalog installs it after adoption).
  std::lock_guard<std::mutex> lock(prior.impl_->mutex);
  for (const auto& [key, value] : prior.impl_->finite) {
    if (!live(key)) continue;
    impl_->finite.emplace(key, value);
  }
  for (const auto& [key, entry] : prior.impl_->blobs) {
    if (!live(key)) continue;
    if (impl_->stats.blob_bytes + entry.bytes > kBlobBudgetBytes) {
      ++impl_->stats.blob_stores_dropped;
      continue;
    }
    impl_->stats.blob_bytes += entry.bytes;
    impl_->blobs.emplace(key, entry);
  }
  // Programs are keyed by formula id alone and depend on the vocabulary:
  // adoptable exactly when the signatures resolve symbols identically.
  if (vocabulary_.Fingerprint() == prior.vocabulary_.Fingerprint()) {
    for (const auto& [id, program] : prior.impl_->programs) {
      impl_->programs.emplace(id, program);
    }
  }
}

void QueryContext::PrewarmAnalyses() const {
  if (!caching_enabled_) return;
  // Drive the exact lazy accessors a query would hit: whatever they
  // compute is by construction bit-identical to what the first
  // post-mutation query would have computed on the request path.
  kb_conjuncts();
  kb_split();
  kb_analysis();
  Compiled(kb_);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  ++impl_->stats.analyses_prewarmed;
}

bool QueryContext::ApplyDelta(const QueryContext& prior, const KbDelta& delta) {
  if (!caching_enabled_ || !prior.caching_enabled_) return false;
  PrewarmAnalyses();
  if (!delta.patchable()) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    ++impl_->stats.deltas_rebuilt;
    return false;
  }
  if (version_salt_ == prior.version_salt_) {
    // The mutation reproduced the predecessor's (vocabulary, KB) pair;
    // every entry AdoptCachesFrom carried over is already keyed for this
    // context.  Nothing to re-salt.
    std::lock_guard<std::mutex> lock(impl_->mutex);
    ++impl_->stats.deltas_patched;
    return true;
  }
  // Collect the predecessor-salted world lists adopted above.  Entries
  // keep their old keys (the two-salt revert window of AdoptCachesFrom);
  // survivors are re-stored under THIS context's salt.
  const std::string& old_prefix = prior.impl_->salt_prefix;
  struct Candidate {
    std::string suffix;
    std::shared_ptr<const void> blob;
  };
  std::vector<Candidate> candidates;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto& [key, entry] : impl_->blobs) {
      if (key.compare(0, old_prefix.size(), old_prefix) != 0) continue;
      candidates.push_back({key.substr(old_prefix.size()), entry.blob});
    }
  }
  uint64_t patched = 0;
  uint64_t dropped = 0;
  for (const Candidate& candidate : candidates) {
    std::shared_ptr<const void> result;
    size_t bytes = 0;
    if (candidate.suffix.compare(0, 15, "profile.worlds|") == 0) {
      result = engines::PatchProfileWorlds(candidate.blob, vocabulary_,
                                           delta.appended, &bytes);
    } else if (candidate.suffix.compare(0, 13, "exact.worlds|") == 0) {
      result = engines::PatchExactWorlds(candidate.blob, vocabulary_,
                                         delta.appended, &bytes);
    } else {
      // Every other engine's blobs (planner plans, maxent solutions, ...)
      // recompute lazily under the new salt; salting makes that correct.
      continue;
    }
    if (result == nullptr) {
      ++dropped;  // marker or tombstone — the point recomputes lazily
      continue;
    }
    StoreBlob(candidate.suffix, std::move(result), bytes);
    ++patched;
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  ++impl_->stats.deltas_patched;
  impl_->stats.world_lists_patched += patched;
  impl_->stats.world_lists_dropped += dropped;
  return true;
}

QueryContext::CacheStats QueryContext::cache_stats() const {
  CacheStats stats;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    stats = impl_->stats;
  }
  std::lock_guard<std::mutex> lock(impl_->answer_mutex);
  stats.answer_hits = impl_->answer_hits;
  stats.answer_misses = impl_->answer_misses;
  return stats;
}

}  // namespace rwl
