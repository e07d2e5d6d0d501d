#include "src/service/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <utility>

#include "src/logic/parser.h"
#include "src/service/replica.h"

namespace rwl::service {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// An open formula off the wire is rejected at admission — a protocol
// error before any snapshot is pinned or any tenant queue is touched —
// with the message the library would answer it with.
bool CheckClosed(const logic::FormulaPtr& formula, const char* what,
                 std::string* error) {
  *error = OpenFormulaError(formula, what);
  return error->empty();
}

}  // namespace

KbService::KbService(const ServiceOptions& options)
    : options_(options),
      catalog_(options.catalog),
      scheduler_(options.scheduler) {
  if (!options_.wal.dir.empty()) {
    wal_ = std::make_unique<KbWal>(options_.wal);
    snapshot_thread_ = std::thread(&KbService::SnapshotLoop, this);
  }
}

KbService::~KbService() {
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_stop_ = true;
  }
  snapshot_cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
}

bool KbService::Recover(std::vector<std::string>* warnings,
                        std::string* error) {
  if (wal_ == nullptr) return true;
  if (!wal_->ok()) {
    *error = wal_->init_error();
    return false;
  }
  std::vector<KbWal::RecoveredKb> recovered;
  uint64_t max_version = 0;
  if (!KbWal::Recover(options_.wal.dir, &recovered, &max_version, warnings,
                      error)) {
    return false;
  }
  // New versions must exceed every journaled one BEFORE any re-load, so
  // old and new version spaces never collide in a segment.
  catalog_.EnsureVersionFloor(max_version);
  for (KbWal::RecoveredKb& kb : recovered) {
    std::shared_ptr<const KbSnapshot> snapshot =
        catalog_.Load(kb.name, std::move(kb.kb));
    // Compact immediately: a durable snapshot at the NEW version covers
    // (and truncates) everything journaled in the old version space.
    std::string snap_error;
    if (!wal_->WriteSnapshot(kb.name, snapshot->version, snapshot->kb,
                             &snap_error)) {
      if (warnings) {
        warnings->push_back("post-recovery snapshot of '" + kb.name +
                            "': " + snap_error);
      }
    }
  }
  return true;
}

KbCatalog::VersionHook KbService::JournalHook(WalRecord record,
                                              uint64_t* seq) {
  *seq = 0;
  ReplicationHub* hub = options_.replication;
  if (wal_ == nullptr && hub == nullptr) return {};
  // Runs inside the catalog's version-assignment critical section: the
  // version is final here, and appending/publishing under the lock makes
  // journal order and ship order equal to version order.  Append only
  // buffers (the fsync happens in FinishDurable, outside the lock).
  return [this, hub, record = std::move(record), seq](uint64_t version) {
    // Ship only once a TAIL has subscribed.  Its bootstrap subscribes
    // BEFORE serializing the staged state, and reads that state under the
    // catalog mutex this hook holds, so a version assigned while nobody
    // was subscribed is in the bootstrap, and every later one is shipped.
    const bool ship = hub != nullptr && hub->HasSubscribers();
    if (wal_ == nullptr && !ship) return;
    WalRecord versioned = record;
    versioned.version = version;
    const std::string line = EncodeWalRecord(versioned);
    if (wal_ != nullptr) *seq = wal_->Append(versioned.kb, version, line);
    if (ship) hub->Publish(line);
  };
}

void KbService::FinishDurable(const std::string& name, uint64_t seq,
                              MutationResult* result) {
  if (wal_ == nullptr || !result->ok) return;
  if (seq == 0) {
    result->ok = false;
    result->error = "durability failure: could not journal mutation";
    return;
  }
  std::string sync_error;
  if (!wal_->Sync(name, seq, &sync_error)) {
    // The op is applied in memory but its durability is indeterminate —
    // surfaced as a failure so the client treats the ack as unsafe.
    result->ok = false;
    result->error = "durability failure: " + sync_error;
    return;
  }
  if (wal_->SnapshotDue(name)) {
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(snapshot_mutex_);
      if (std::find(snapshot_queue_.begin(), snapshot_queue_.end(), name) ==
          snapshot_queue_.end()) {
        snapshot_queue_.push_back(name);
        notify = true;
      }
    }
    if (notify) snapshot_cv_.notify_all();
  }
}

void KbService::SnapshotLoop() {
  std::unique_lock<std::mutex> lock(snapshot_mutex_);
  for (;;) {
    snapshot_cv_.wait(lock,
                      [&] { return snapshot_stop_ || !snapshot_queue_.empty(); });
    if (snapshot_queue_.empty()) {
      if (snapshot_stop_) return;
      continue;
    }
    std::string name = std::move(snapshot_queue_.front());
    snapshot_queue_.pop_front();
    lock.unlock();
    // The staged tail is the authoritative post-ack state.  Mutations may
    // ack past its version before the snapshot lands; WriteSnapshot keeps
    // the segments that hold them.
    KbCatalog::StagedState staged = catalog_.Staged(name);
    if (staged.ok) {
      std::string snap_error;
      (void)wal_->WriteSnapshot(name, staged.version, staged.kb, &snap_error);
    }
    lock.lock();
  }
}

InferenceOptions KbService::EffectiveOptions(
    const RequestOptions& request) const {
  InferenceOptions options = options_.inference;
  if (request.deadline_ms > 0.0) options.deadline_ms = request.deadline_ms;
  if (request.work_budget > 0.0) options.work_budget = request.work_budget;
  if (request.fixed_domain_size > 0) {
    options.fixed_domain_size = request.fixed_domain_size;
  }
  if (request.plan == "cost") {
    options.plan_mode = PlanMode::kMinCost;
  } else if (request.plan == "fidelity") {
    options.plan_mode = PlanMode::kFidelity;
  }
  if (!request.engine.empty()) {
    options.strategies = StrategySet::Only(request.engine);
  }
  if (request.interval_confidence > 0.0) {
    options.interval_confidence = request.interval_confidence;
  }
  return options;
}

KbService::MutationResult KbService::Load(
    const std::string& name, const std::string& kb_text,
    const std::vector<std::string>& declare) {
  MutationResult result;
  KnowledgeBase kb;
  if (!kb.AddParsed(kb_text, &result.error)) return result;
  if (!CheckClosed(kb.AsFormula(), "knowledge base", &result.error)) {
    return result;
  }
  for (const std::string& constant : declare) {
    if (constant.empty()) {
      result.error = "empty constant declaration";
      return result;
    }
    // The name comes off the wire: a cross-kind re-declaration is an
    // error, not the vocabulary's abort.
    if (kb.mutable_vocabulary().AddFunction(constant, 0, &result.error) < 0) {
      return result;
    }
  }
  WalRecord record;
  record.op = WalRecord::Op::kLoad;
  record.kb = name;
  record.text = kb_text;
  record.declare = declare;
  uint64_t seq = 0;
  std::shared_ptr<const KbSnapshot> snapshot =
      catalog_.Load(name, std::move(kb), JournalHook(std::move(record), &seq));
  result.ok = true;
  result.version = snapshot->version;
  FinishDurable(name, seq, &result);
  return result;
}

KbService::MutationResult KbService::Assert(const std::string& name,
                                            const std::string& text) {
  MutationResult result;
  WalRecord record;
  record.op = WalRecord::Op::kAssert;
  record.kb = name;
  record.text = text;
  uint64_t seq = 0;
  MutationTicket ticket = catalog_.Mutate(
      name,
      [&](KnowledgeBase* kb, std::string* error) {
        if (!kb->AddParsed(text, error)) return false;
        return CheckClosed(kb->AsFormula(), "asserted sentence", error);
      },
      JournalHook(std::move(record), &seq));
  result.ok = ticket.ok;
  result.error = std::move(ticket.error);
  result.version = ticket.version;
  FinishDurable(name, seq, &result);
  return result;
}

KbService::MutationResult KbService::Retract(const std::string& name,
                                             const std::string& text) {
  MutationResult result;
  logic::ParseResult parsed = logic::ParseFormula(text);
  if (!parsed.ok()) {
    result.error = "retract parse error: " + parsed.error;
    return result;
  }
  WalRecord record;
  record.op = WalRecord::Op::kRetract;
  record.kb = name;
  record.text = text;
  uint64_t seq = 0;
  MutationTicket ticket = catalog_.Mutate(
      name,
      [&](KnowledgeBase* kb, std::string* error) {
        // Hash-consing: structural equality is pointer equality.
        size_t removed =
            RetractConjuncts(kb, [&](size_t, const logic::FormulaPtr& c) {
              return c == parsed.formula;
            });
        if (removed == 0) {
          *error = "no conjunct matches '" + text + "'";
          return false;
        }
        return true;
      },
      JournalHook(std::move(record), &seq));
  result.ok = ticket.ok;
  result.error = std::move(ticket.error);
  result.version = ticket.version;
  FinishDurable(name, seq, &result);
  return result;
}

bool KbService::Drop(const std::string& name) {
  ReplicationHub* hub = options_.replication;
  const bool dropped = catalog_.Drop(name, [&] {
    // Under the catalog mutex: the DROP ships in global version order.
    if (hub != nullptr && hub->HasSubscribers()) {
      WalRecord record;
      record.op = WalRecord::Op::kDrop;
      record.kb = name;
      hub->Publish(EncodeWalRecord(record));
    }
  });
  if (dropped && wal_ != nullptr) wal_->Remove(name);
  return dropped;
}

// Parses and admits one query against a pinned snapshot.  On admission the
// returned future completes when the job has filled *result (which must
// outlive it); an invalid future means *result already carries the error.
std::future<void> KbService::SubmitOnSnapshot(
    std::shared_ptr<const KbSnapshot> snapshot, const std::string& query_text,
    const InferenceOptions& options, QueryResult* result) {
  result->snapshot = snapshot;
  logic::ParseResult parsed = logic::ParseFormula(query_text);
  if (!parsed.ok()) {
    result->error = "query parse error: " + parsed.error;
    return {};
  }
  if (!CheckClosed(parsed.formula, "query", &result->error)) return {};
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> future = done->get_future();
  const Clock::time_point admitted = Clock::now();
  const bool admitted_ok = scheduler_.Submit(
      snapshot->name,
      [result, snapshot, query = parsed.formula, options, admitted]() {
        try {
          result->answer =
              AnswerOnSnapshot(*snapshot, query, options, &result->error);
          result->ok = result->error.empty();
        } catch (const std::exception& e) {
          result->error = std::string("engine failure: ") + e.what();
        } catch (...) {
          result->error = "engine failure";
        }
        result->latency_ms = MillisSince(admitted);
      },
      [done] { done->set_value(); });
  if (!admitted_ok) {
    result->error = "overloaded: tenant queue is full";
    return {};
  }
  return future;
}

// How long a min_version read waits for the warm successor to publish
// before answering on a cold transient snapshot of the staged tail
// instead.  Publication normally lands within a few milliseconds of the
// ack; the bound matters when the maintenance worker is backlogged or
// CPU-starved (an oversubscribed host, a replica applying a busy feed) —
// read-your-writes promises the acked STATE, not warmed caches, so a
// bounded wait plus the bit-identical cold fallback beats queueing the
// read behind cache warming.
constexpr double kPublishGraceMs = 20.0;

// Read-your-writes pin: the published head once it reaches min_version,
// or the staged-tail fallback (see kPublishGraceMs).  Null when the KB is
// unknown.
std::shared_ptr<const KbSnapshot> KbService::PinForRead(
    const std::string& name, uint64_t min_version) {
  if (min_version > 0 &&
      !catalog_.WaitForVersion(name, min_version, kPublishGraceMs)) {
    std::shared_ptr<const KbSnapshot> staged = catalog_.StagedSnapshot(name);
    if (staged != nullptr && staged->version >= min_version) return staged;
  }
  return catalog_.Get(name);
}

KbService::QueryResult KbService::Query(const std::string& name,
                                        const std::string& query_text,
                                        const RequestOptions& request) {
  QueryResult result;
  std::shared_ptr<const KbSnapshot> snapshot =
      PinForRead(name, request.min_version);
  if (snapshot == nullptr) {
    result.error = "no knowledge base named '" + name + "'";
    return result;
  }
  std::future<void> future = SubmitOnSnapshot(
      std::move(snapshot), query_text, EffectiveOptions(request), &result);
  if (future.valid()) future.wait();
  return result;
}

bool KbService::AnswerMemoized(const std::string& name,
                               const std::string& query_text,
                               const RequestOptions& request,
                               QueryResult* result) {
  const Clock::time_point start = Clock::now();
  std::shared_ptr<const KbSnapshot> snapshot = catalog_.Get(name);
  if (snapshot == nullptr || snapshot->version < request.min_version) {
    return false;
  }
  logic::ParseResult parsed = logic::ParseFormula(query_text);
  if (!parsed.ok() || !OpenFormulaError(parsed.formula, "query").empty()) {
    return false;
  }
  Answer answer;
  if (!AnswerFromMemo(*snapshot,
                      AnswerMemoKey(parsed.formula, EffectiveOptions(request)),
                      /*count_miss=*/false, &answer)) {
    return false;
  }
  result->ok = true;
  result->error.clear();
  result->answer = std::move(answer);
  result->snapshot = std::move(snapshot);
  result->latency_ms = MillisSince(start);
  return true;
}

std::vector<KbService::QueryResult> KbService::Batch(
    const std::string& name, const std::vector<std::string>& queries,
    const RequestOptions& request) {
  std::vector<QueryResult> results(queries.size());
  std::shared_ptr<const KbSnapshot> snapshot =
      PinForRead(name, request.min_version);
  if (snapshot == nullptr) {
    for (auto& result : results) {
      result.error = "no knowledge base named '" + name + "'";
    }
    return results;
  }
  // One pinned snapshot for the whole batch; all queries are admitted
  // before the first wait, so they run concurrently on the pool, and the
  // shared snapshot context dedups the per-(N, τ) work across them
  // exactly like DegreesOfBelief.
  const InferenceOptions options = EffectiveOptions(request);
  std::vector<std::future<void>> futures(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    futures[i] =
        SubmitOnSnapshot(snapshot, queries[i], options, &results[i]);
  }
  for (auto& future : futures) {
    if (future.valid()) future.wait();
  }
  return results;
}

}  // namespace rwl::service
