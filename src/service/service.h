// KbService: the embeddable core of the rwld daemon — a KbCatalog of
// versioned KBs behind a fair multi-tenant QueryScheduler.
//
// Contract (the snapshot-isolation guarantee rwld documents):
//
//   * a mutation (LOAD/ASSERT/RETRACT) is durable when the call returns:
//     its version number is the ack, the WAL order is fixed, and — with a
//     WAL configured — its journal record is fsync'd (group commit)
//     before the ack, so Recover() reproduces it after a crash.  Every
//     later mutation builds on it.  The successor snapshot itself is
//     minted on a background maintenance worker (incremental cache
//     patching included) and published atomically once warm — readers
//     keep serving the previous head during that window, and the ack
//     never waits for a build (same-KB builds coalesce);
//   * a query pins a snapshot at admission time and answers against that
//     version no matter what lands while it waits or runs — the answer is
//     bit-identical to a fresh single-threaded query against that version
//     (service_stress_test holds this under 8 writers × 32 readers,
//     including the async publication window);
//   * a query carrying RequestOptions::min_version (the protocol layer's
//     read-your-writes: a connection's own acked mutations) waits for
//     that version to publish before pinning;
//   * a pinned version answers each (query, answer-affecting options)
//     once: a hit on the snapshot's answer memo returns the memoized
//     answer under the same bit-identity guarantee, with a plan trace
//     marked from_memo.  rwld answers hits on the connection thread
//     (AnswerMemoized below) and sends only misses to the scheduler, so a
//     hit skips the tenant queue and is never refused as "overloaded".
//     Query itself still looks the memo up inside the scheduled job, on a
//     worker: in-process hits answered inline run fast enough that
//     rwbench's warm_read, which keeps every latency sample, outgrows its
//     memory bound, so Query takes the same probe once those samples are
//     bounded (ROADMAP item 2).  A deadline-cut answer is never memoized,
//     and CatalogOptions::caching_enabled = false turns the memo off with
//     every other cache;
//   * a BATCH pins one snapshot for all its queries;
//   * admission control: a tenant whose queue is full gets an immediate
//     "overloaded" rejection, and queries on other tenants are served
//     round-robin regardless.
//
// Per-query deadlines and work budgets ride into the planner through
// InferenceOptions; the scheduler never preempts a running query.
#ifndef RWL_SERVICE_SERVICE_H_
#define RWL_SERVICE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/inference.h"
#include "src/service/catalog.h"
#include "src/service/scheduler.h"
#include "src/service/wal.h"

namespace rwl::service {

class ReplicationHub;  // replica.h

struct ServiceOptions {
  SchedulerOptions scheduler;
  // Mutations ack after the WAL-order edit; the catalog's maintenance
  // worker mints the successor snapshot off the request path.
  CatalogOptions catalog;
  // Defaults for every query; per-request options override deadline,
  // budget and plan mode.
  InferenceOptions inference;
  // Durability: with a non-empty wal.dir every LOAD/ASSERT/RETRACT is
  // journaled and fsync'd (group commit) before its ack returns, KB
  // snapshots are written off the ack path every wal.snapshot_every
  // mutations (truncating the log), and Recover() rebuilds the catalog
  // after a crash.  Empty dir = in-memory only (the old behavior).
  WalOptions wal;
  // Log shipping: when set, every mutation record is published to this
  // hub (inside the version-assignment critical section, so ship order is
  // version order) while a TAIL subscriber is attached; with none, no
  // record is encoded for it.  Not owned.
  ReplicationHub* replication = nullptr;
};

// Per-request overrides (the protocol's optional QUERY fields).
struct RequestOptions {
  double deadline_ms = 0.0;  // 0 = service default
  double work_budget = 0.0;  // 0 = service default
  std::string plan;          // "", "fidelity" or "cost"
  int fixed_domain_size = 0;  // 0 = service default
  // Runs only this named strategy (QUERY field "engine"; empty = the
  // service's strategy set).  An inapplicable strategy answers kUnknown,
  // like rwlq --engine.
  std::string engine;
  // Calibrated-interval mode (QUERY field "interval"): confidence in
  // (0,1); 0 keeps the service default (normally off).
  double interval_confidence = 0.0;
  // Waits for this version to publish before pinning (0 = pin the current
  // head).  The protocol layer sets a connection's last acked mutation
  // version here so a client always reads its own writes even while the
  // successor snapshot is still minting in the background.
  uint64_t min_version = 0;
};

class KbService {
 public:
  explicit KbService(const ServiceOptions& options = {});
  ~KbService();

  // Crash recovery: scans the WAL directory and reinstalls every
  // journaled KB (newest snapshot + replay), raises the catalog version
  // floor above every journaled version, and re-snapshots each recovered
  // KB (compacting the log into the new version space).  Call once,
  // before serving.  No-op without a WAL.  Non-fatal per-KB problems ride
  // back as warnings; false only when the WAL root is unreadable.
  bool Recover(std::vector<std::string>* warnings, std::string* error);

  struct MutationResult {
    bool ok = false;
    std::string error;
    uint64_t version = 0;  // the acked head version when ok
  };

  // Parses `kb_text` (one sentence per line) and installs it as a new KB.
  // `declare` registers extra constants the KB text does not mention
  // (query-only individuals; see README "Running as a service").
  MutationResult Load(const std::string& name, const std::string& kb_text,
                      const std::vector<std::string>& declare = {});

  // Parses and asserts sentences; produces the successor version.
  MutationResult Assert(const std::string& name, const std::string& text);

  // Parses one sentence and retracts every structurally identical
  // conjunct; an absent conjunct is an error (no version is produced).
  // Retraction keeps the vocabulary: symbols stay registered, so the
  // world space — and therefore every other degree of belief — is
  // unchanged by retract-then-reassert round trips.
  MutationResult Retract(const std::string& name, const std::string& text);

  bool Drop(const std::string& name);

  struct QueryResult {
    bool ok = false;
    std::string error;  // parse error / signature conflict / unknown KB /
                        // "overloaded"
    Answer answer;
    // The pinned version the answer was computed against (null on error
    // before admission).
    std::shared_ptr<const KbSnapshot> snapshot;
    double latency_ms = 0.0;  // admission to completion, queue wait included
  };

  // Synchronous: admits, waits for the scheduler, returns the answer.
  QueryResult Query(const std::string& name, const std::string& query_text,
                    const RequestOptions& request = {});

  // The memo-hit probe rwld runs before Query, on the calling thread: pins
  // the published head (never waits) and, when its answer memo holds the
  // query under `request`'s answer-affecting options, fills *result as
  // Query's own hit would (ok, answer with a from_memo trace, snapshot,
  // latency_ms) and returns true.  A hit takes no tenant queue slot, so it
  // is never refused as "overloaded".  Returns false, leaving *result
  // untouched, when the KB is unknown, the head is older than
  // request.min_version, the text does not parse, the formula is open or
  // the memo misses: Query then answers (publish grace, staged fallback
  // and error messages included).
  bool AnswerMemoized(const std::string& name, const std::string& query_text,
                      const RequestOptions& request, QueryResult* result);

  // One pinned snapshot for the whole batch; answers in argument order.
  std::vector<QueryResult> Batch(const std::string& name,
                                 const std::vector<std::string>& queries,
                                 const RequestOptions& request = {});

  QueryScheduler::Stats scheduler_stats() const { return scheduler_.stats(); }
  std::vector<std::shared_ptr<const KbSnapshot>> Heads() const {
    return catalog_.Heads();
  }
  std::shared_ptr<const KbSnapshot> Snapshot(const std::string& name) const {
    return catalog_.Get(name);
  }

  // Maintenance surface (see KbCatalog): observing an acked
  // version, draining the mint queue, and holding the publication window
  // open deterministically in tests.
  bool WaitForVersion(const std::string& name, uint64_t version,
                      double timeout_ms = -1.0) const {
    return catalog_.WaitForVersion(name, version, timeout_ms);
  }
  bool DrainMaintenance(double timeout_ms = -1.0) {
    return catalog_.DrainMaintenance(timeout_ms);
  }
  void PauseMaintenance() { catalog_.PauseMaintenance(); }
  void ResumeMaintenance() { catalog_.ResumeMaintenance(); }
  KbCatalog::MaintenanceStats maintenance_stats() const {
    return catalog_.maintenance_stats();
  }
  const ServiceOptions& options() const { return options_; }

  // Null when durability is off.  Exposed for STATS and the bench fields.
  const KbWal* wal() const { return wal_.get(); }
  KbCatalog* catalog() { return &catalog_; }

  // The effective InferenceOptions a request runs under (exposed so tests
  // can reproduce a service answer with a fresh single-threaded call).
  InferenceOptions EffectiveOptions(const RequestOptions& request) const;

 private:
  std::future<void> SubmitOnSnapshot(
      std::shared_ptr<const KbSnapshot> snapshot,
      const std::string& query_text, const InferenceOptions& options,
      QueryResult* result);

  // The read-side snapshot pin shared by Query and Batch: the published
  // head once it reaches `min_version`, or — after a bounded wait on a
  // backlogged maintenance worker — a cold transient snapshot of the
  // staged tail (bit-identical answers, unwarmed caches).
  std::shared_ptr<const KbSnapshot> PinForRead(const std::string& name,
                                               uint64_t min_version);

  // The version hook shared by Load/Assert/Retract: journals `record`
  // (version filled in) and ships it to the replication hub's subscribers.
  // Returns the WAL sequence to Sync on (0 = nothing journaled).
  KbCatalog::VersionHook JournalHook(WalRecord record, uint64_t* seq);
  // Finishes a mutation: group-commit fsync of `seq`, then snapshot
  // scheduling.  Flips result->ok to false on a durability failure.
  void FinishDurable(const std::string& name, uint64_t seq,
                     MutationResult* result);

  void SnapshotLoop();

  ServiceOptions options_;
  std::unique_ptr<KbWal> wal_;  // null = durability off
  KbCatalog catalog_;
  QueryScheduler scheduler_;  // workers stop before the catalog dies

  // Off-ack-path snapshot writer (one KB name queued at most once).
  std::mutex snapshot_mutex_;
  std::condition_variable snapshot_cv_;
  std::deque<std::string> snapshot_queue_;
  bool snapshot_stop_ = false;
  std::thread snapshot_thread_;  // last: joined first in ~KbService
};

}  // namespace rwl::service

#endif  // RWL_SERVICE_SERVICE_H_
