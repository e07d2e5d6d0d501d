// KbCatalog: named, versioned knowledge bases with copy-on-write snapshot
// isolation — the storage layer of the rwld service.
//
// Every named KB is a chain of immutable KbSnapshot versions.  A reader
// pins the head snapshot (a shared_ptr) and keeps answering against that
// version for the whole query, no matter how many ASSERT/RETRACTs land
// concurrently; the snapshot — its KnowledgeBase and its shared
// QueryContext full of derived caches — stays alive until the last pinned
// reader drops it.
//
// A mutation copies the head KnowledgeBase (O(delta): the conjunct list is
// a persistent vector), applies the edit, and installs a successor
// snapshot with a fresh QueryContext that ADOPTS the predecessor's caches
// (QueryContext::AdoptCachesFrom) and, for signature-preserving appends,
// PATCHES the expensive recorded world lists instead of letting them
// rebuild (QueryContext::ApplyDelta).  Invalidation is selective by
// keying, not by flushing: every cached entry is qualified with the
// version salt of the KB it was computed against, so entries for the old
// KB id are unreachable from the new version — except when a mutation
// sequence reproduces an identical (vocabulary, KB) pair, in which case
// the hash-consed KB formula gets the same id, the salts agree, and the
// old entries are valid hits again.  Compiled programs, which depend only
// on (formula, vocabulary), survive every mutation that leaves the
// signature unchanged.
//
// Maintenance.  A mutation's expensive part — context construction, cache
// adoption and delta patching — runs off the request path: Mutate applies
// the edit to the chain's STAGED tail (the authoritative post-ack state),
// assigns the version number (fixing the WAL order), enqueues the build for
// the maintenance worker, and returns.  Readers keep serving the published
// head until the warm successor is installed atomically; a caller that must
// observe an acked version waits with WaitForVersion.  Answers stay
// bit-identical to fresh single-threaded queries against whichever
// snapshot a reader pinned.
#ifndef RWL_SERVICE_CATALOG_H_
#define RWL_SERVICE_CATALOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/inference.h"
#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"

namespace rwl::service {

// One immutable KB version.  `context` carries the version's shared caches
// and is safe for concurrent queries (QueryContext is internally locked);
// everything else is read-only after construction.
//
// Because a version is immutable, a degree of belief against it is a pure
// function of (query, answer-affecting options): AnswerOnSnapshot memoizes
// each finished Answer in the context's answer memo
// (QueryContext::LookupAnswer), and the memo's entries double as the
// version's working set — the maintenance worker replays the first
// KbCatalog::kMaxReplayedAnswers of them against a successor BEFORE
// publishing it (see MintSuccessor).
struct KbSnapshot {
  std::string name;
  // Catalog-wide monotone counter: a tenant's successive versions are
  // strictly increasing but NOT consecutive (versions interleave across
  // tenants, and numbers never reuse — a pinned reader of a dropped chain
  // can never alias a later version).
  uint64_t version = 0;
  KnowledgeBase kb;
  std::shared_ptr<QueryContext> context;
};

struct CatalogOptions {
  // Snapshot caches — the answer memo included — replay derived state
  // across queries and adopted versions.  Off is for tests and
  // measurement only — the differential
  // `service` check deliberately runs with caching ON and compares
  // against cache-free from-scratch rebuilds, which is exactly what
  // proves the adopted caches never change an answer.
  bool caching_enabled = true;
  // Old versions retained for GetVersion lookups (pinned readers keep
  // their snapshots alive regardless; this only bounds the catalog's own
  // history index).
  size_t retained_versions = 4;
};

// The ack of a mutation: `version` is fixed (WAL order) even when the
// successor snapshot is still being built in the background.
struct MutationTicket {
  bool ok = false;
  uint64_t version = 0;
  std::string error;
};

class KbCatalog {
 public:
  // Runs inside the catalog's version-assignment critical section, right
  // after the op's version is fixed and the staged tail updated — the one
  // place where "this version number, in this global order" is certain.
  // KbService journals (WAL append) and publishes (replica hub) here so
  // file order and ship order are version order.  Must be fast and must
  // not re-enter the catalog.
  using VersionHook = std::function<void(uint64_t version)>;

  // How many of a predecessor's memoized answers (shared-context ones, in
  // store order) a successor mint replays before publication.
  static constexpr size_t kMaxReplayedAnswers = 32;

  explicit KbCatalog(const CatalogOptions& options = {});
  ~KbCatalog();

  KbCatalog(const KbCatalog&) = delete;
  KbCatalog& operator=(const KbCatalog&) = delete;

  // Installs `kb` as version 1 of `name` (or re-loads: the version chain
  // restarts and the version number keeps growing, so pinned readers of
  // the old chain stay consistent and never alias a new version number).
  // Always synchronous (a load has no predecessor to serve meanwhile).
  // Returns the installed snapshot.
  std::shared_ptr<const KbSnapshot> Load(const std::string& name,
                                         KnowledgeBase kb,
                                         const VersionHook& on_version = {});

  // The head snapshot, or null when `name` is unknown.
  std::shared_ptr<const KbSnapshot> Get(const std::string& name) const;

  // A retained historical version, or null when unknown / already trimmed.
  std::shared_ptr<const KbSnapshot> GetVersion(const std::string& name,
                                               uint64_t version) const;

  // Copy-on-write mutation: copies the staged KnowledgeBase, applies
  // `edit`, and on success acks the next version.  When `edit` returns
  // false nothing changes and the error rides back in the ticket.
  //
  // Returns once the edit is applied and the version assigned; the
  // successor is published by the maintenance worker (WaitForVersion to
  // observe it).  Later mutations see this one: edits run against the
  // staged tail, serialized per tenant.
  //
  // Ack never waits on the worker: a run of queued mutations on one chain
  // COALESCES into a single successor mint from the newest staged state
  // (the queue holds at most one task per chain), so the queue depth is
  // bounded by the tenant count and acking is O(edit) regardless of write
  // pressure.  Durability is the WAL's job (wal.h), not the queue's.
  MutationTicket Mutate(
      const std::string& name,
      const std::function<bool(KnowledgeBase*, std::string*)>& edit,
      const VersionHook& on_version = {});

  // Removes a KB outright.  Pinned readers keep their snapshots; queued
  // maintenance for the dropped chain is discarded.  `on_drop` runs under
  // the catalog mutex only when something was actually dropped (the
  // version-hook slot of a DROP: replica shipping stays in global order).
  bool Drop(const std::string& name,
            const std::function<void()>& on_drop = {});

  std::vector<std::shared_ptr<const KbSnapshot>> Heads() const;

  // The authoritative post-ack state of `name`: the staged tail KB (an
  // O(delta) persistent-vector copy) and its acked version — ahead of the
  // published head whenever builds are queued.  This is what WAL
  // snapshots and replica bootstraps serialize.
  struct StagedState {
    bool ok = false;
    KnowledgeBase kb;
    uint64_t version = 0;
  };
  StagedState Staged(const std::string& name) const;

  // Read-your-writes fallback: a TRANSIENT cold snapshot of the staged
  // tail — the acked state at Staged().version — built on the caller's
  // thread and never published into the chain.  Answers on it are
  // bit-identical (a cold context is exactly the from-scratch baseline)
  // but unwarmed, so callers prefer the published head and reach for
  // this only after a bounded WaitForVersion expires — a backlogged or
  // CPU-starved maintenance worker must bound a min_version read's
  // latency, not gate it on cache warming.  Null when `name` is unknown.
  std::shared_ptr<const KbSnapshot> StagedSnapshot(
      const std::string& name) const;

  // Raises the catalog's next version above `floor` so every version
  // assigned from now on exceeds it.  Recovery calls this with the
  // highest journaled version BEFORE re-loading recovered KBs: fresh
  // version numbers never collide with ones already on disk.
  void EnsureVersionFloor(uint64_t floor);

  // Blocks until the published head of `name` reaches `version`; returns
  // false when the chain is dropped (or never existed) or — with a
  // non-negative `timeout_ms` — when the deadline expires first.  Never
  // hangs on a discarded in-flight mutation: a re-Load publishes a
  // strictly higher version than every previously acked one.
  bool WaitForVersion(const std::string& name, uint64_t version,
                      double timeout_ms = -1.0) const;

  // Blocks until the maintenance queue is empty and the worker idle.
  // Returns false on deadline expiry (`timeout_ms` >= 0) — including the
  // once-deadlocking footgun of draining while PAUSED with work still
  // queued, which now simply times out.
  bool DrainMaintenance(double timeout_ms = -1.0);

  // Deterministically holds the async publication window open for tests:
  // Pause returns once the worker is idle and keeps it from starting the
  // next build; Resume lets it continue.
  void PauseMaintenance();
  void ResumeMaintenance();

  struct MaintenanceStats {
    size_t queue_depth = 0;   // chains with an acked-but-unpublished build
    uint64_t minted = 0;      // successors published by the worker
    uint64_t patched = 0;     // successors whose delta was patched in place
    uint64_t rebuilt = 0;     // successors left to rebuild caches lazily
    uint64_t discarded = 0;   // queued builds dropped (tenant drop/reload)
    uint64_t coalesced = 0;   // acked mutations folded into a queued build
  };
  MaintenanceStats maintenance_stats() const;

 private:
  struct Chain {
    // version -> snapshot; the last entry is the published head.
    std::map<uint64_t, std::shared_ptr<const KbSnapshot>> versions;
    // The authoritative post-ack state: every acked mutation is applied
    // here immediately, even while its snapshot build is still queued.
    // Written only at chain creation and under write_mutex.
    KnowledgeBase staged_kb;
    uint64_t staged_version = 0;
    // Serializes writers per tenant so the copy-on-write edit runs OUTSIDE
    // the catalog-wide mutex_ — one tenant's mutation must not stall other
    // tenants' snapshot pins.  The pointer identity doubles as the chain
    // token: a concurrent re-Load mints a new chain (and mutex), which an
    // in-flight mutation or queued maintenance task detects and discards.
    std::shared_ptr<std::mutex> write_mutex = std::make_shared<std::mutex>();
  };

  // One acked mutation awaiting its successor build.
  struct MaintenanceTask {
    std::string name;
    std::shared_ptr<std::mutex> token;  // the chain's write_mutex identity
    KnowledgeBase kb;
    uint64_t version = 0;  // preassigned at ack time
  };

  // Builds a snapshot (version assigned by the caller).  Lock-free.
  static std::shared_ptr<KbSnapshot> BuildSnapshot(
      const std::string& name, KnowledgeBase kb, const QueryContext* prior,
      bool caching_enabled);

  // BuildSnapshot + delta patching against the predecessor, then the
  // publish-when-warm replay of its memoized answers.
  std::shared_ptr<KbSnapshot> MintSuccessor(const std::string& name,
                                            KnowledgeBase kb,
                                            const KbSnapshot& prior);

  // Publishes an already-versioned snapshot and wakes WaitForVersion.
  void InstallLocked(Chain* chain, std::shared_ptr<KbSnapshot> snapshot);

  void MaintenanceLoop();
  void ProcessTask(MaintenanceTask task);

  CatalogOptions options_;
  mutable std::mutex mutex_;
  mutable std::condition_variable install_cv_;  // with mutex_: publications
  std::map<std::string, Chain> chains_;
  uint64_t next_version_ = 1;  // catalog-wide: version numbers never reuse

  // Maintenance worker state (guarded by maintenance_mutex_ except the
  // counters, which are read lock-free by maintenance_stats).
  mutable std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  std::deque<MaintenanceTask> queue_;
  size_t in_flight_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  std::atomic<uint64_t> minted_{0};
  std::atomic<uint64_t> patched_{0};
  std::atomic<uint64_t> rebuilt_{0};
  std::atomic<uint64_t> discarded_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::thread maintenance_thread_;  // last: joins before members die
};

// RETRACT semantics, shared by KbService::Retract and the differential
// `service` check: rebuilds *kb without the conjuncts selected by
// `drop(index, conjunct)`, PRESERVING the vocabulary — retraction removes
// knowledge, not symbols, so the world space (and every other degree of
// belief) is unchanged by retract-then-reassert round trips.  Returns the
// number of conjuncts dropped.
size_t RetractConjuncts(
    KnowledgeBase* kb,
    const std::function<bool(size_t, const logic::FormulaPtr&)>& drop);

// Shared by KbService and the differential `service` check: answers one
// query against a pinned snapshot.
//
// The snapshot's answer memo comes first.  Its key is the hash-consed query
// id plus every answer-affecting option (AppendOptionsKey: work budget,
// plan mode, fixed domain size, strategy set, interval confidence and the
// service-constant schedule and tolerances); the deadline is not part of
// it.  A hit returns the memoized answer with a fresh PlanTrace:
// from_cache and from_memo set, no step run, total_ms the hit's own time.
//
// A miss first checks the query's symbols against the snapshot's
// signature (logic::SymbolConflict; hits skip the check, since a
// conflicting query is never memoized).  A conflict is refused: the
// answer is kUnknown with the conflict as its explanation, and *error
// (when given) names it too.  Otherwise, queries covered by the
// snapshot's vocabulary run through the shared context (cache hits across
// queries and adopted versions); a query introducing fresh symbols gets a
// private context derived from the snapshot's KB — same rule, and
// bit-identical answers, as the batch API (core/inference.cc).  The answer
// is then memoized unless its deadline cut it short, so a hit is
// bit-identical to a fresh single-threaded DegreeOfBelief on the pinned
// KB.
Answer AnswerOnSnapshot(const KbSnapshot& snapshot,
                        const logic::FormulaPtr& query,
                        const InferenceOptions& options,
                        std::string* error = nullptr);

}  // namespace rwl::service

#endif  // RWL_SERVICE_CATALOG_H_
