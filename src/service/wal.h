// Durable write-ahead logging for the KB service.
//
// Every mutation the catalog acks (LOAD / ASSERT / RETRACT) is first
// appended as one canonical NDJSON record to a per-KB segmented log under
// `WalOptions::dir` and fsync'd (group commit) BEFORE the ack returns to
// the client.  The mutation protocol is already a replayable journal — the
// differential `service` check replays deterministic mutation sequences
// against a bit-identity oracle — so the WAL record format IS the wire
// format: the same records recover a crashed catalog from disk and ship
// live to log-tailing read replicas (replica.h).
//
// Layout, per KB (directory name is the percent-escaped KB name):
//
//   <dir>/<kb>/wal-000001.ndjson     closed segment (rotated at size cap)
//   <dir>/<kb>/wal-000002.ndjson     current segment (append + fsync)
//   <dir>/<kb>/snap-000000042.ndjson one-line full-state snapshot at v42
//
// Records carry the catalog version assigned at append time (the append
// runs inside the catalog's version-assignment critical section, so file
// order is version order per segment; recovery additionally sorts by
// version, making cross-segment interleavings harmless).  A snapshot is
// the serialized conjunct list plus the exact vocabulary — symbols in
// registration order, so reconstruction reproduces every symbol id and
// the vocabulary fingerprint verifies it.  Snapshots are written off the
// ack path (KbService's snapshot worker) and truncate the log by version:
// once snap-<V> is durable, every closed segment whose last record is at
// or below V is deleted.  A segment holding any newer record stays, and
// recovery skips its records the snapshot covers.
//
// One owner per open segment: a Sync leader or the one close path, never
// both.  The close path waits out an in-flight group commit, then writes
// what is buffered, cuts the preallocated tail, fdatasyncs and closes;
// size-cap rotation, snapshots, DROP and shutdown all go through it.
//
// Recovery = newest snapshot + replay of newer records, tolerating a torn
// final record (a crash mid-append loses only the never-acked suffix).
// Versions after recovery restart ABOVE the highest recovered version
// (KbCatalog::EnsureVersionFloor), and the recovered state is immediately
// re-snapshotted so old and new version spaces never share a segment.
#ifndef RWL_SERVICE_WAL_H_
#define RWL_SERVICE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/knowledge_base.h"
#include "src/service/catalog.h"

namespace rwl::service {

// One journaled / shipped mutation.  kSnapshot doubles as the on-disk
// snapshot file format and the replica bootstrap record.
struct WalRecord {
  enum class Op { kLoad, kAssert, kRetract, kSnapshot, kDrop };
  Op op = Op::kAssert;
  std::string kb;
  uint64_t version = 0;  // catalog version assigned at ack (0 for kDrop)
  std::string text;      // LOAD / ASSERT / RETRACT payload
  std::vector<std::string> declare;  // LOAD extra constants
  // kSnapshot: the full state.  Symbols are listed in registration order
  // so reconstruction reassigns identical ids; `fingerprint` must match
  // the rebuilt vocabulary's Fingerprint() or the snapshot is rejected.
  std::vector<std::pair<std::string, int>> predicates;
  std::vector<std::pair<std::string, int>> functions;
  std::vector<std::string> conjuncts;  // printed formulas (parser round-trips)
  uint64_t fingerprint = 0;
};

// One NDJSON line (no trailing newline).
std::string EncodeWalRecord(const WalRecord& record);
bool DecodeWalRecord(const std::string& line, WalRecord* out,
                     std::string* error);

// Serializes a KB state as a kSnapshot record.
WalRecord MakeSnapshotRecord(const std::string& kb_name, uint64_t version,
                             const KnowledgeBase& kb);

// Rebuilds the KB of a kSnapshot record: vocabulary first (exact symbol
// ids), then the conjuncts.  Fails on a parse error or a vocabulary
// fingerprint mismatch.
bool KbFromSnapshot(const WalRecord& record, KnowledgeBase* out,
                    std::string* error);

// Applies one record's op semantics to a bare KB state (`state` may hold
// no value yet — LOAD / SNAPSHOT create it).  Shared by recovery and by
// ApplyWalRecord so journal replay, replica apply and the live service
// agree on semantics (RETRACT preserves the vocabulary, exactly like
// KbService::Retract).
bool ApplyRecordToState(const WalRecord& record,
                        std::unique_ptr<KnowledgeBase>* state,
                        std::string* error);

// Applies one record to a catalog through the same Load / Mutate paths
// the live service uses (the replica's apply path).  On success
// *local_version is the catalog version the op produced (0 for kDrop).
bool ApplyWalRecord(KbCatalog* catalog, const WalRecord& record,
                    uint64_t* local_version, std::string* error);

struct WalOptions {
  std::string dir;  // root directory; empty = durability off
  // Rotate the active segment once it exceeds this many bytes.
  size_t segment_bytes = 1u << 20;
  // Journaled mutations per KB between snapshots (0 = never snapshot;
  // the log then grows without truncation).
  int snapshot_every = 256;
};

struct WalStats {
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
  uint64_t snapshots = 0;
  uint64_t segments_deleted = 0;
  // Over the most recent fsyncs (capped reservoir).
  double fsync_p50_us = 0.0;
  double fsync_p99_us = 0.0;
  double fsync_max_us = 0.0;
};

// The per-KB segmented log writer set.  Thread-safe; Append is cheap (an
// in-memory buffer append) so it can run inside the catalog's
// version-assignment critical section, while Sync pays the write+fsync
// with group commit: concurrent syncers of one KB ride a single fsync.
class KbWal {
 public:
  explicit KbWal(const WalOptions& options);
  ~KbWal();

  KbWal(const KbWal&) = delete;
  KbWal& operator=(const KbWal&) = delete;

  // False when the root directory could not be created.
  bool ok() const { return ok_; }
  const std::string& init_error() const { return init_error_; }
  const WalOptions& options() const { return options_; }

  // Buffers one encoded record of `kb` at catalog `version` (creating its
  // log on first use) and returns the per-KB sequence to pass to Sync; 0
  // on failure.  Callers append each KB's records in version order (the
  // catalog's version hook does).  The caller provides the already-encoded
  // line so the hub publish path can share the encoding.
  uint64_t Append(const std::string& kb, uint64_t version,
                  const std::string& line);

  // Group commit: returns once every buffered record of `kb` up to `seq`
  // is written and fsync'd.  One concurrent caller becomes the leader and
  // pays the fsync; the rest wait for the durable sequence to cover them.
  // False when a write or fsync that carried `seq` failed.
  bool Sync(const std::string& kb, uint64_t seq, std::string* error);

  // True when `kb` has journaled at least `snapshot_every` records since
  // its last snapshot (always false when snapshots are disabled).
  bool SnapshotDue(const std::string& kb) const;

  // Writes a durable snapshot of `state` at `version`, closing the open
  // segment first, then deletes the closed segments it covers: those
  // whose last record is at or below `version`, and those this writer
  // found on disk (they predate every version assigned since recovery,
  // and the recovered state includes them).  Older snapshot files go too.
  // `state` must hold every record at or below `version`; records above
  // it may be journaled concurrently and are kept.
  bool WriteSnapshot(const std::string& kb, uint64_t version,
                     const KnowledgeBase& state, std::string* error);

  // Deletes every durable trace of `kb` (DROP semantics: a KB either has
  // a directory — not dropped — or none).  The open segment is closed
  // through the one close path first, so an in-flight Sync finishes.
  void Remove(const std::string& kb);

  WalStats stats() const;

  // ---- recovery (static: runs before any writer exists) ----
  struct RecoveredKb {
    std::string name;
    KnowledgeBase kb;
    uint64_t version = 0;       // highest applied record / snapshot version
    size_t replayed_records = 0;
  };

  // Scans `dir` and reconstructs every journaled KB: newest readable
  // snapshot plus all newer records in version order.  A torn final
  // record (crash mid-append) is dropped silently; other malformed lines
  // stop that KB's replay at the last good prefix with a warning.
  // *max_version is the highest version seen anywhere (the catalog's
  // post-recovery version floor).  Returns false only on an unreadable
  // root directory.
  static bool Recover(const std::string& dir, std::vector<RecoveredKb>* out,
                      uint64_t* max_version,
                      std::vector<std::string>* warnings, std::string* error);

 private:
  struct Writer {
    std::mutex mutex;
    std::condition_variable cv;
    std::string dir;            // <root>/<escaped-kb>
    int fd = -1;
    uint64_t segment_index = 0;  // index of the open segment
    size_t segment_bytes = 0;    // bytes written to the open segment
    uint64_t next_seq = 1;
    uint64_t durable_seq = 0;
    uint64_t failed_seq = 0;     // highest seq a failed write/fsync carried
    int failed_errno = 0;
    uint64_t pending_seq = 0;    // seq of the last buffered record
    uint64_t pending_version = 0;  // catalog version of that record
    std::string pending;         // encoded lines awaiting the next fsync
    bool syncing = false;        // a flush owns the fd (mutex released)
    // Closed segments still on disk -> catalog version of their last
    // record (0 for segments found on disk at startup).
    std::map<uint64_t, uint64_t> closed_segments;
    uint64_t appends_since_snapshot = 0;
    std::mutex snapshot_mutex;   // serializes WriteSnapshot
  };

  std::shared_ptr<Writer> FindWriter(const std::string& kb) const;
  std::shared_ptr<Writer> GetWriter(const std::string& kb);  // creates
  bool OpenSegment(Writer* writer, std::string* error);  // writer->mutex held
  // Writes every buffered record at the end of the open segment and
  // fdatasyncs; with `close`, also cuts the preallocated tail and closes.
  // The caller holds `lock`, no flush is in flight and the segment is
  // open; the I/O runs with the mutex released and `syncing` set.
  bool FlushLocked(Writer* writer, std::unique_lock<std::mutex>& lock,
                   bool close);
  // The one close path: waits until no flush is in flight, then closes
  // the open segment (if any) through FlushLocked.
  void CloseSegmentLocked(Writer* writer, std::unique_lock<std::mutex>& lock);
  void RecordFsync(double micros);

  WalOptions options_;
  bool ok_ = false;
  std::string init_error_;

  mutable std::mutex mutex_;  // guards writers_
  std::map<std::string, std::shared_ptr<Writer>> writers_;

  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> snapshots_{0};
  std::atomic<uint64_t> segments_deleted_{0};
  mutable std::mutex fsync_stats_mutex_;
  std::vector<double> fsync_samples_;  // ring, kMaxFsyncSamples entries
  size_t fsync_sample_next_ = 0;
  static constexpr size_t kMaxFsyncSamples = 4096;
};

}  // namespace rwl::service

#endif  // RWL_SERVICE_WAL_H_
