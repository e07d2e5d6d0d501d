#include "src/service/catalog.h"

#include <chrono>
#include <utility>

#include "src/core/planner.h"
#include "src/logic/transform.h"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace rwl::service {

KbCatalog::KbCatalog(const CatalogOptions& options)
    : options_(options),
      maintenance_thread_(&KbCatalog::MaintenanceLoop, this) {}

KbCatalog::~KbCatalog() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    stopping_ = true;
  }
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) maintenance_thread_.join();
}

std::shared_ptr<KbSnapshot> KbCatalog::BuildSnapshot(
    const std::string& name, KnowledgeBase kb, const QueryContext* prior,
    bool caching_enabled) {
  auto snapshot = std::make_shared<KbSnapshot>();
  snapshot->name = name;
  snapshot->kb = std::move(kb);
  snapshot->context = std::make_shared<QueryContext>(
      snapshot->kb.vocabulary(), snapshot->kb.AsFormula(), caching_enabled);
  // Service tenants re-ask the same sweep points for the KB's lifetime,
  // and a recorded world list is the unit ApplyDelta patches across
  // versions — record on first computation instead of second (never
  // changes an answer; see engines/world_cache.h).
  snapshot->context->set_eager_world_recording(caching_enabled);
  if (prior != nullptr) snapshot->context->AdoptCachesFrom(*prior);
  return snapshot;
}

std::shared_ptr<KbSnapshot> KbCatalog::MintSuccessor(const std::string& name,
                                                     KnowledgeBase kb,
                                                     const KbSnapshot& prior) {
  std::shared_ptr<KbSnapshot> snapshot = BuildSnapshot(
      name, std::move(kb), prior.context.get(), options_.caching_enabled);
  if (options_.caching_enabled) {
    KbDelta delta = ComputeKbDelta(prior.kb, snapshot->kb);
    if (snapshot->context->ApplyDelta(*prior.context, delta)) {
      patched_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rebuilt_.fetch_add(1, std::memory_order_relaxed);
    }
    // Publish-when-warm: replay the predecessor's memoized queries so
    // everything they need on the new version — including work the old
    // version never did, like a sweep for a query the mutation knocked off
    // a symbolic fast path — is computed HERE, before readers can pin this
    // snapshot, not on the first post-mutation request.  Each replayed
    // answer lands in the successor's memo, so the first real read is a
    // memo hit with a bit-identical result, and the memo carries the
    // working set forward to the next successor.
    size_t replayed = 0;
    for (const auto& entry : prior.context->MemoizedAnswers()) {
      if (!entry->shared_context) continue;
      if (replayed++ == kMaxReplayedAnswers) break;
      try {
        AnswerOnSnapshot(*snapshot, entry->query, *entry->options);
      } catch (...) {
        // Best-effort: a query that fails here fails identically (and
        // reports its own error) when a client re-asks it.
      }
    }
  }
  return snapshot;
}

void KbCatalog::InstallLocked(Chain* chain,
                              std::shared_ptr<KbSnapshot> snapshot) {
  chain->versions.emplace(snapshot->version, std::move(snapshot));
  while (chain->versions.size() > options_.retained_versions &&
         options_.retained_versions > 0) {
    chain->versions.erase(chain->versions.begin());
  }
  install_cv_.notify_all();
}

std::shared_ptr<const KbSnapshot> KbCatalog::Load(
    const std::string& name, KnowledgeBase kb, const VersionHook& on_version) {
  std::shared_ptr<KbSnapshot> snapshot =
      BuildSnapshot(name, std::move(kb), nullptr, options_.caching_enabled);
  std::lock_guard<std::mutex> lock(mutex_);
  chains_.erase(name);  // a re-load starts a fresh chain
  snapshot->version = next_version_++;
  Chain& chain = chains_[name];
  chain.staged_kb = snapshot->kb;
  chain.staged_version = snapshot->version;
  if (on_version) on_version(snapshot->version);
  InstallLocked(&chain, snapshot);
  return snapshot;
}

std::shared_ptr<const KbSnapshot> KbCatalog::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chains_.find(name);
  if (it == chains_.end() || it->second.versions.empty()) return nullptr;
  return it->second.versions.rbegin()->second;
}

std::shared_ptr<const KbSnapshot> KbCatalog::GetVersion(
    const std::string& name, uint64_t version) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chains_.find(name);
  if (it == chains_.end()) return nullptr;
  auto vit = it->second.versions.find(version);
  return vit == it->second.versions.end() ? nullptr : vit->second;
}

MutationTicket KbCatalog::Mutate(
    const std::string& name,
    const std::function<bool(KnowledgeBase*, std::string*)>& edit,
    const VersionHook& on_version) {
  MutationTicket ticket;
  auto fail = [&](const std::string& message) {
    ticket.error = message;
    return ticket;
  };
  // Serialize writers on this tenant only; the catalog-wide mutex_ is
  // held just long enough to read and update chain state, so other
  // tenants' Get() admissions never wait on this edit or build.
  std::shared_ptr<std::mutex> write_mutex;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(name);
    if (it == chains_.end() || it->second.versions.empty()) {
      return fail("no knowledge base named '" + name + "'");
    }
    write_mutex = it->second.write_mutex;
  }
  std::lock_guard<std::mutex> write_lock(*write_mutex);
  // Edit against the STAGED tail, not the published head: the head may
  // lag acked mutations, and a later mutation must see every earlier ack
  // (WAL order).  The copy is O(delta) — the conjunct list is a persistent
  // vector.
  KnowledgeBase next;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(name);
    if (it == chains_.end() || it->second.write_mutex != write_mutex) {
      return fail("knowledge base '" + name + "' was dropped or reloaded");
    }
    next = it->second.staged_kb;
  }
  std::string edit_error;
  if (!edit(&next, &edit_error)) return fail(edit_error);

  // Fix the WAL order now (assign the version, advance the staged tail,
  // journal/ship via the hook), hand the expensive successor build to the
  // maintenance worker, and return.  Readers keep serving the published
  // head until the warm successor is installed.
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(name);
    if (it == chains_.end() || it->second.write_mutex != write_mutex) {
      return fail("knowledge base '" + name + "' was dropped or reloaded");
    }
    version = next_version_++;
    it->second.staged_kb = next;
    it->second.staged_version = version;
    if (on_version) on_version(version);
  }
  {
    // Never block the ack on the worker: a run of mutations on one chain
    // coalesces into the single queued task, which the worker always
    // builds from the NEWEST acked state (skipped versions still satisfy
    // WaitForVersion — it waits for `head >= v`, and the coalesced
    // publication carries the highest v of the run).  This replaces the
    // old bounded-queue backpressure that stalled acks for the length of
    // a successor build (the 775 ms mixed-phase mutation p99).
    std::unique_lock<std::mutex> lock(maintenance_mutex_);
    if (!stopping_) {
      bool folded = false;
      for (MaintenanceTask& task : queue_) {
        if (task.name == name && task.token == write_mutex) {
          task.kb = std::move(next);
          task.version = version;
          folded = true;
          coalesced_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      if (!folded) {
        queue_.push_back(
            MaintenanceTask{name, write_mutex, std::move(next), version});
      }
    }
  }
  maintenance_cv_.notify_all();
  ticket.ok = true;
  ticket.version = version;
  return ticket;
}

bool KbCatalog::Drop(const std::string& name,
                     const std::function<void()>& on_drop) {
  bool dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped = chains_.erase(name) > 0;
    if (dropped && on_drop) on_drop();
  }
  // Queued maintenance for the dropped chain is discarded by the worker
  // (its token no longer matches); waiters must re-check now.
  install_cv_.notify_all();
  return dropped;
}

KbCatalog::StagedState KbCatalog::Staged(const std::string& name) const {
  StagedState state;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chains_.find(name);
  if (it == chains_.end()) return state;
  state.ok = true;
  state.kb = it->second.staged_kb;  // O(delta): persistent conjunct vector
  state.version = it->second.staged_version;
  return state;
}

std::shared_ptr<const KbSnapshot> KbCatalog::StagedSnapshot(
    const std::string& name) const {
  StagedState staged;
  std::shared_ptr<const KbSnapshot> prior;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(name);
    if (it == chains_.end()) return nullptr;
    staged.kb = it->second.staged_kb;  // O(delta) persistent-vector copy
    staged.version = it->second.staged_version;
    if (!it->second.versions.empty()) {
      prior = it->second.versions.rbegin()->second;
    }
  }
  // Same warm path as the worker's mint — adopt the published head's
  // caches and patch the delta — minus the memo replay: the caller
  // has one concrete query to answer, so warming the rest of the working
  // set here would put exactly the work this fallback exists to avoid
  // back on the request path.  The service differential check covers the
  // adopt+patch path's bit-identity.
  std::shared_ptr<KbSnapshot> snapshot = BuildSnapshot(
      name, std::move(staged.kb),
      prior != nullptr ? prior->context.get() : nullptr,
      options_.caching_enabled);
  snapshot->version = staged.version;
  if (prior != nullptr && options_.caching_enabled) {
    KbDelta delta = ComputeKbDelta(prior->kb, snapshot->kb);
    snapshot->context->ApplyDelta(*prior->context, delta);  // best effort
  }
  return snapshot;
}

void KbCatalog::EnsureVersionFloor(uint64_t floor) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (next_version_ <= floor) next_version_ = floor + 1;
}

std::vector<std::shared_ptr<const KbSnapshot>> KbCatalog::Heads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const KbSnapshot>> heads;
  heads.reserve(chains_.size());
  for (const auto& [name, chain] : chains_) {
    if (!chain.versions.empty()) {
      heads.push_back(chain.versions.rbegin()->second);
    }
  }
  return heads;
}

bool KbCatalog::WaitForVersion(const std::string& name, uint64_t version,
                               double timeout_ms) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              timeout_ms < 0 ? 0.0 : timeout_ms));
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = chains_.find(name);
    if (it == chains_.end() || it->second.versions.empty()) return false;
    if (it->second.versions.rbegin()->second->version >= version) return true;
    if (timeout_ms < 0) {
      install_cv_.wait(lock);
    } else if (install_cv_.wait_until(lock, deadline) ==
               std::cv_status::timeout) {
      auto again = chains_.find(name);
      return again != chains_.end() && !again->second.versions.empty() &&
             again->second.versions.rbegin()->second->version >= version;
    }
  }
}

bool KbCatalog::DrainMaintenance(double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              timeout_ms < 0 ? 0.0 : timeout_ms));
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  auto drained = [&] { return queue_.empty() && in_flight_ == 0; };
  if (timeout_ms < 0) {
    maintenance_cv_.wait(lock, drained);
    return true;
  }
  // A deadline instead of the old deadlock: draining while PAUSED with
  // work queued (catalog.h used to document this as a footgun) now just
  // reports false when the clock runs out.
  return maintenance_cv_.wait_until(lock, deadline, drained);
}

void KbCatalog::PauseMaintenance() {
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  paused_ = true;
  maintenance_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void KbCatalog::ResumeMaintenance() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    paused_ = false;
  }
  maintenance_cv_.notify_all();
}

KbCatalog::MaintenanceStats KbCatalog::maintenance_stats() const {
  MaintenanceStats stats;
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    stats.queue_depth = queue_.size() + in_flight_;
  }
  stats.minted = minted_.load(std::memory_order_relaxed);
  stats.patched = patched_.load(std::memory_order_relaxed);
  stats.rebuilt = rebuilt_.load(std::memory_order_relaxed);
  stats.discarded = discarded_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  return stats;
}

void KbCatalog::MaintenanceLoop() {
#if defined(__linux__)
  // Successor builds (and their warming replays) can burn hundreds of
  // milliseconds of CPU; on a saturated machine that time must come out
  // of idle cycles, not out of foreground query latency.  Lowest niceness
  // for this thread only: queries preempt maintenance, publication just
  // lags a little longer — readers keep the warm predecessor meanwhile.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 19);
#endif
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  for (;;) {
    maintenance_cv_.wait(
        lock, [&] { return stopping_ || (!paused_ && !queue_.empty()); });
    if (queue_.empty()) {
      if (stopping_) return;  // fully drained
      continue;
    }
    // On shutdown the queue is drained regardless of pause: every acked
    // mutation is published within the catalog's lifetime.
    if (paused_ && !stopping_) continue;
    MaintenanceTask task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    ProcessTask(std::move(task));
    lock.lock();
    --in_flight_;
    maintenance_cv_.notify_all();  // Drain / Pause waiters re-check
  }
}

void KbCatalog::ProcessTask(MaintenanceTask task) {
  // The predecessor is the published head at processing time: this worker
  // is the only publisher of successors, so the build adopts (and patches
  // against) the newest published version.  With coalescing the task may
  // fold several acked mutations into one mint — the delta is then
  // multi-op, and ApplyDelta falls back to a lazy rebuild when it cannot
  // patch; answers are unaffected either way.
  std::shared_ptr<const KbSnapshot> head;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(task.name);
    if (it == chains_.end() || it->second.write_mutex != task.token) {
      discarded_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    head = it->second.versions.rbegin()->second;
  }
  std::shared_ptr<KbSnapshot> snapshot =
      MintSuccessor(task.name, std::move(task.kb), *head);
  snapshot->version = task.version;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chains_.find(task.name);
  if (it == chains_.end() || it->second.write_mutex != task.token) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  minted_.fetch_add(1, std::memory_order_relaxed);
  InstallLocked(&it->second, std::move(snapshot));
}

size_t RetractConjuncts(
    KnowledgeBase* kb,
    const std::function<bool(size_t, const logic::FormulaPtr&)>& drop) {
  KnowledgeBase next;
  next.mutable_vocabulary() = kb->vocabulary();
  size_t removed = 0;
  for (size_t i = 0; i < kb->conjuncts().size(); ++i) {
    if (drop(i, kb->conjuncts()[i])) {
      ++removed;
      continue;
    }
    next.Add(kb->conjuncts()[i]);
  }
  *kb = std::move(next);
  return removed;
}

std::string AnswerMemoKey(const logic::FormulaPtr& query,
                          const InferenceOptions& options) {
  std::string key;
  const uint64_t query_id = query->id();
  key.append(reinterpret_cast<const char*>(&query_id), sizeof(query_id));
  AppendOptionsKey(options, &key);
  return key;
}

bool AnswerFromMemo(const KbSnapshot& snapshot, const std::string& key,
                    bool count_miss, Answer* answer) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const QueryContext::MemoizedAnswer> hit =
      snapshot.context->LookupAnswer(key, count_miss);
  if (hit == nullptr) return false;
  *answer = *hit->answer;
  auto trace = std::make_shared<PlanTrace>();
  if (answer->plan != nullptr) {
    trace->mode = answer->plan->mode;
    trace->shape_fingerprint = answer->plan->shape_fingerprint;
  }
  trace->from_cache = true;
  trace->from_memo = true;
  trace->total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  answer->plan = std::move(trace);
  return true;
}

Answer AnswerOnSnapshot(const KbSnapshot& snapshot,
                        const logic::FormulaPtr& query,
                        const InferenceOptions& options, std::string* error) {
  const std::string key = AnswerMemoKey(query, options);
  Answer answer;
  if (AnswerFromMemo(snapshot, key, /*count_miss=*/true, &answer)) {
    return answer;
  }
  std::string conflict = logic::SymbolConflict(query, snapshot.kb.vocabulary());
  if (!conflict.empty()) {
    Answer refused;
    refused.explanation = conflict;
    if (error != nullptr) *error = std::move(conflict);
    return refused;
  }
  const bool shared_context =
      QueryCoveredByVocabulary(snapshot.kb.vocabulary(), query);
  // Fresh query symbols: a private context over the pinned KB (the shared
  // context's vocabulary cannot cover them) — the batch API's rule.
  QueryContext& context = *snapshot.context;
  answer = shared_context ? DegreeOfBelief(context, query, options)
                          : DegreeOfBelief(snapshot.kb, query, options);
  if (context.caching_enabled()) {
    context.StoreAnswer(
        key, std::make_shared<const QueryContext::MemoizedAnswer>(
                 QueryContext::MemoizedAnswer{
                     query, std::make_shared<const InferenceOptions>(options),
                     std::make_shared<const Answer>(answer), shared_context}));
  }
  return answer;
}

}  // namespace rwl::service
