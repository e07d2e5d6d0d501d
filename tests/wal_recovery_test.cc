// Durability tests for the WAL + crash-recovery + replication layer.
//
// The contract under test: a mutation ACK means the op is fsync'd in the
// KB's write-ahead log, so (1) a process that acked and then died — even
// SIGKILL mid-append — recovers to a state containing every acked
// mutation and answering queries BIT-IDENTICALLY to an uninterrupted
// catalog with the same history; (2) a torn final record (the crash cut
// an append short) is dropped silently, losing only the never-acked
// suffix; (3) snapshots truncate the log without changing the recovered
// state, even while mutations keep acking, segments rotate and group
// commits are in flight; (4) acks never wait on the maintenance queue
// (the 775 ms stall regression: with the worker paused, hundreds of
// mutations must all ack immediately, coalescing into one successor
// build); (5) a log-shipping replica fed through the service's real
// publish hook answers bit-identically to the primary via the
// version-vector handoff.
//
// The SIGKILL test forks: the child runs its own service over the shared
// WAL dir and reports each ack over a pipe; the parent kills it at an
// arbitrary point and recovers.  The oracle is prefix replay — acked
// facts are distinct markers, so the recovered state itself identifies
// which prefix survived, and that prefix must be AT LEAST every ack the
// parent observed.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/logic/parser.h"
#include "src/logic/printer.h"
#include "src/service/catalog.h"
#include "src/service/protocol.h"
#include "src/service/replica.h"
#include "src/service/service.h"
#include "src/service/wal.h"

namespace rwl {
namespace {

using service::KbCatalog;
using service::KbService;
using service::KbWal;
using service::ReplicaApplier;
using service::ReplicationHub;
using service::ServiceOptions;
using service::WalRecord;

// A self-cleaning WAL directory under the test's working directory.
struct TempDir {
  std::string path;
  TempDir() {
    char name[] = "wal_test_XXXXXX";
    char* made = ::mkdtemp(name);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "wal_test_fallback";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

const char kBaseKb[] =
    "#(P(x))[x] ~= 0.3\n"
    "#(Q(x) ; P(x))[x] ~= 0.8\n"
    "P(C0)\n"
    "Q(C1)\n";

// Every marker constant is declared at load time so asserts stay
// signature-preserving (the incremental maintenance fast path — and the
// crash test needs the ack latency dominated by the fsync, not rebuilds).
std::vector<std::string> DeclareMarkers(int count) {
  std::vector<std::string> declare;
  for (int i = 2; i < 2 + count; ++i) {
    declare.push_back("C" + std::to_string(i));
  }
  return declare;
}

std::string Marker(int i) { return "P(C" + std::to_string(2 + i) + ")"; }

const char* kQueries[] = {"P(C0)", "Q(C1)", "(#(P(x))[x] <~ 0.5)"};

// Small service: shallow sweep, few workers — these tests measure
// durability plumbing, not inference throughput.
ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.scheduler.num_threads = 2;
  options.inference.tolerances = semantics::ToleranceVector::Uniform(0.1);
  options.inference.limit.domain_sizes = {4, 8};
  return options;
}

// Bit-level equality of two answers, with gtest-friendly diagnostics.
void ExpectSameAnswer(const Answer& a, const Answer& b,
                      const std::string& where) {
  EXPECT_EQ(static_cast<int>(a.status), static_cast<int>(b.status)) << where;
  EXPECT_EQ(a.value, b.value) << where;
  EXPECT_EQ(a.lo, b.lo) << where;
  EXPECT_EQ(a.hi, b.hi) << where;
  EXPECT_EQ(a.converged, b.converged) << where;
  EXPECT_EQ(a.method, b.method) << where;
}

// Queries `expected` and `actual` services side by side.
void ExpectServicesAgree(KbService* expected, KbService* actual,
                         const std::string& kb, const std::string& where) {
  for (const char* query : kQueries) {
    KbService::QueryResult lhs = expected->Query(kb, query);
    KbService::QueryResult rhs = actual->Query(kb, query);
    ASSERT_TRUE(lhs.ok) << where << " query " << query << ": " << lhs.error;
    ASSERT_TRUE(rhs.ok) << where << " query " << query << ": " << rhs.error;
    ExpectSameAnswer(lhs.answer, rhs.answer,
                     where + " query " + std::string(query));
  }
}

// Journals one record through `wal` and waits for its fsync.
void AppendAndSync(KbWal* wal, const WalRecord& record) {
  const uint64_t seq =
      wal->Append(record.kb, record.version, service::EncodeWalRecord(record));
  ASSERT_NE(seq, 0u);
  std::string error;
  ASSERT_TRUE(wal->Sync(record.kb, seq, &error)) << error;
}

WalRecord MutationRecord(WalRecord::Op op, uint64_t version,
                         const std::string& text) {
  WalRecord record;
  record.op = op;
  record.kb = "kb";
  record.version = version;
  record.text = text;
  return record;
}

// Printed conjuncts of one recovered KB, or a test failure.
std::vector<std::string> RecoverConjuncts(const std::string& dir,
                                          uint64_t* version) {
  std::vector<KbWal::RecoveredKb> recovered;
  std::vector<std::string> warnings;
  uint64_t max_version = 0;
  std::string error;
  EXPECT_TRUE(
      KbWal::Recover(dir, &recovered, &max_version, &warnings, &error))
      << error;
  for (const std::string& warning : warnings) ADD_FAILURE() << warning;
  std::vector<std::string> conjuncts;
  if (recovered.size() != 1) {
    ADD_FAILURE() << "recovered " << recovered.size() << " KBs, want 1";
    return conjuncts;
  }
  *version = recovered[0].version;
  for (const auto& conjunct : recovered[0].kb.conjuncts()) {
    conjuncts.push_back(logic::ToString(conjunct));
  }
  return conjuncts;
}

// ---- 1. durable ack + clean recovery ----

TEST(WalRecoveryTest, RecoveredCatalogAnswersBitIdentically) {
  TempDir dir;
  const int kMutations = 12;

  // The uninterrupted oracle: same history, no WAL.
  KbService oracle(SmallServiceOptions());
  ASSERT_TRUE(oracle.Load("kb", kBaseKb, DeclareMarkers(kMutations)).ok);

  uint64_t last_version = 0;
  {
    ServiceOptions options = SmallServiceOptions();
    options.wal.dir = dir.path;
    KbService durable(options);
    std::vector<std::string> warnings;
    std::string error;
    ASSERT_TRUE(durable.Recover(&warnings, &error)) << error;
    EXPECT_TRUE(warnings.empty());
    ASSERT_TRUE(durable.Load("kb", kBaseKb, DeclareMarkers(kMutations)).ok);
    for (int i = 0; i < kMutations; ++i) {
      // Mix asserts with one retract/re-assert round trip.
      KbService::MutationResult ack = durable.Assert("kb", Marker(i));
      ASSERT_TRUE(ack.ok) << ack.error;
      ASSERT_TRUE(oracle.Assert("kb", Marker(i)).ok);
      if (i == kMutations / 2) {
        ASSERT_TRUE(durable.Retract("kb", Marker(0)).ok);
        ASSERT_TRUE(oracle.Retract("kb", Marker(0)).ok);
      }
      last_version = ack.version;
    }
    const service::WalStats stats = durable.wal()->stats();
    EXPECT_GE(stats.appends, static_cast<uint64_t>(kMutations));
    EXPECT_GE(stats.fsyncs, 1u);
  }  // destructor: no flush required — every ack was already durable

  ServiceOptions options = SmallServiceOptions();
  options.wal.dir = dir.path;
  KbService recovered(options);
  std::vector<std::string> warnings;
  std::string error;
  ASSERT_TRUE(recovered.Recover(&warnings, &error)) << error;
  for (const std::string& warning : warnings) ADD_FAILURE() << warning;
  ExpectServicesAgree(&oracle, &recovered, "kb", "after recovery");

  // Post-recovery versions restart ABOVE the recovered history.
  KbService::MutationResult next = recovered.Assert("kb", Marker(0));
  ASSERT_TRUE(next.ok) << next.error;
  EXPECT_GT(next.version, last_version);
}

// A symbol used at a second arity, or as a second kind, off the wire used
// to abort the daemon inside Vocabulary.  Each refused op answers
// "ok":false and journals nothing, and the tenant keeps answering.
TEST(WalRecoveryTest, SignatureConflictsAreRefusedWithoutARecord) {
  TempDir dir;
  ServiceOptions options = SmallServiceOptions();
  options.wal.dir = dir.path;
  KbService durable(options);
  std::vector<std::string> warnings;
  std::string error;
  ASSERT_TRUE(durable.Recover(&warnings, &error)) << error;

  KbService::MutationResult load = durable.Load("bad", "P(A)\nP(A, B)\n");
  EXPECT_FALSE(load.ok);
  EXPECT_EQ(load.error,
            "cannot declare predicate 'P' with arity 2: already arity 1");
  EXPECT_NE(service::MutationResponse(1, "bad", load).find("\"ok\":false"),
            std::string::npos);
  EXPECT_EQ(durable.wal()->stats().appends, 0u);

  ASSERT_TRUE(durable.Load("kb", kBaseKb).ok);
  const uint64_t appends = durable.wal()->stats().appends;
  KbService::MutationResult assert_clash = durable.Assert("kb", "P(C0, C1)");
  EXPECT_FALSE(assert_clash.ok);
  EXPECT_EQ(assert_clash.error,
            "cannot declare predicate 'P' with arity 2: already arity 1");
  EXPECT_EQ(durable.wal()->stats().appends, appends);

  for (int attempt = 0; attempt < 2; ++attempt) {  // never memoized
    KbService::QueryResult clash = durable.Query("kb", "P(C0, C1)");
    EXPECT_FALSE(clash.ok);
    EXPECT_EQ(clash.error,
              "cannot declare predicate 'P' with arity 2: already arity 1");
    EXPECT_NE(service::QueryResponse(2, clash).find("\"ok\":false"),
              std::string::npos);
  }
  KbService::QueryResult as_constant = durable.Query("kb", "Q(P)");
  EXPECT_FALSE(as_constant.ok);
  EXPECT_EQ(as_constant.error,
            "cannot declare constant 'P': already a predicate");

  KbService::QueryResult still = durable.Query("kb", "P(C0)");
  EXPECT_TRUE(still.ok) << still.error;
}

// A journaled or shipped record is untrusted input: WAL recovery and the
// replica's TAIL feed both apply it through ApplyRecordToState, so a
// record whose symbols clash is an error naming the clash, not an abort.
TEST(WalRecoveryTest, ReplayedSignatureClashesAreErrors) {
  WalRecord load;
  load.op = WalRecord::Op::kLoad;
  load.kb = "kb";
  load.version = 1;
  load.text = "P(A)";
  load.declare = {"P"};
  WalRecord snapshot;
  snapshot.op = WalRecord::Op::kSnapshot;
  snapshot.kb = "kb";
  snapshot.version = 2;
  snapshot.predicates = {{"P", 1}, {"P", 2}};
  const std::pair<WalRecord, std::string> cases[] = {
      {load, "cannot declare constant 'P': already a predicate"},
      {snapshot, "cannot declare predicate 'P' with arity 2: already arity 1"},
  };
  for (const auto& [record, clash] : cases) {
    std::unique_ptr<KnowledgeBase> state;
    std::string error;
    EXPECT_FALSE(service::ApplyRecordToState(record, &state, &error));
    EXPECT_NE(error.find(clash), std::string::npos) << error;
    EXPECT_EQ(state, nullptr);

    KbCatalog replica_kbs;
    ReplicaApplier applier(&replica_kbs);
    error.clear();
    EXPECT_FALSE(applier.ApplyLine(service::EncodeWalRecord(record), &error));
    EXPECT_NE(error.find(clash), std::string::npos) << error;
    EXPECT_EQ(replica_kbs.Get("kb"), nullptr);
  }
}

// The record format is the on-disk and replication wire format: its
// bytes are pinned exactly, escapes and 64-bit decimal strings included.
TEST(WalRecoveryTest, RecordBytesAreGolden) {
  WalRecord load = MutationRecord(WalRecord::Op::kLoad, 1, "P(A)\nQ(B)");
  load.declare = {"C", "D\"E"};
  WalRecord assert_record = MutationRecord(WalRecord::Op::kAssert,
                                           18446744073709551615ull, "P(C)");
  assert_record.kb = "a/b \"c\"";
  const WalRecord retract = MutationRecord(WalRecord::Op::kRetract, 3, "P(A)");
  WalRecord snapshot;
  snapshot.op = WalRecord::Op::kSnapshot;
  snapshot.kb = "kb";
  snapshot.version = 42;
  snapshot.fingerprint = 12345678901234567890ull;
  snapshot.predicates = {{"P", 1}, {"Q", 2}};
  snapshot.functions = {{"A", 0}, {"f", 1}};
  snapshot.conjuncts = {"P(A)", "say \"hi\"\t\\", std::string("\x01\r", 2)};
  WalRecord drop;
  drop.op = WalRecord::Op::kDrop;
  drop.kb = "kb";
  const std::pair<WalRecord, std::string> cases[] = {
      {load,
       R"j({"op":"LOAD","kb":"kb","version":"1","text":"P(A)\nQ(B)",)j"
       R"j("declare":["C","D\"E"]})j"},
      {assert_record,
       R"j({"op":"ASSERT","kb":"a/b \"c\"","version":"18446744073709551615",)j"
       R"j("text":"P(C)"})j"},
      {retract, R"j({"op":"RETRACT","kb":"kb","version":"3","text":"P(A)"})j"},
      {snapshot,
       R"j({"op":"SNAPSHOT","kb":"kb","version":"42",)j"
       R"j("fingerprint":"12345678901234567890",)j"
       R"j("predicates":[["P",1],["Q",2]],"functions":[["A",0],["f",1]],)j"
       R"j("conjuncts":["P(A)","say \"hi\"\t\\","\u0001\r"]})j"},
      {drop, R"j({"op":"DROP","kb":"kb"})j"},
  };
  for (const auto& [record, golden] : cases) {
    const std::string line = service::EncodeWalRecord(record);
    EXPECT_EQ(line, golden);
    WalRecord decoded;
    std::string error;
    ASSERT_TRUE(service::DecodeWalRecord(line, &decoded, &error)) << error;
    EXPECT_EQ(decoded.op, record.op);
    EXPECT_EQ(decoded.kb, record.kb);
    EXPECT_EQ(decoded.version, record.version);
    EXPECT_EQ(decoded.text, record.text);
    EXPECT_EQ(decoded.declare, record.declare);
    EXPECT_EQ(decoded.predicates, record.predicates);
    EXPECT_EQ(decoded.functions, record.functions);
    EXPECT_EQ(decoded.conjuncts, record.conjuncts);
    EXPECT_EQ(decoded.fingerprint, record.fingerprint);
    EXPECT_EQ(service::EncodeWalRecord(decoded), golden);
  }
}

// ---- 2. SIGKILL mid-stream: acked prefix survives ----

TEST(WalRecoveryTest, SigkillMidStreamRecoversEveryAckedMutation) {
  TempDir dir;
  const int kMutations = 24;

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: a durable service acking markers as fast as it can, one
    // pipe byte per ack (the load counts as ack 0).
    ::close(pipe_fds[0]);
    ServiceOptions options = SmallServiceOptions();
    options.wal.dir = dir.path;
    KbService durable(options);
    std::vector<std::string> warnings;
    std::string error;
    if (!durable.Recover(&warnings, &error)) ::_exit(3);
    if (!durable.Load("kb", kBaseKb, DeclareMarkers(kMutations)).ok) {
      ::_exit(3);
    }
    char byte = 'a';
    (void)!::write(pipe_fds[1], &byte, 1);
    for (int i = 0; i < kMutations; ++i) {
      if (!durable.Assert("kb", Marker(i)).ok) ::_exit(3);
      (void)!::write(pipe_fds[1], &byte, 1);
    }
    // Park until killed: exiting would run destructors and defeat the
    // point of the test.
    for (;;) ::pause();
  }
  ::close(pipe_fds[1]);

  // Parent: observe a few acks, then kill without warning.
  int observed_acks = 0;
  char byte;
  while (observed_acks < 1 + kMutations / 3 &&
         ::read(pipe_fds[0], &byte, 1) == 1) {
    ++observed_acks;
  }
  ASSERT_GE(observed_acks, 1) << "child never acked the load";
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  // Drain acks raced between the last read and the kill — they are acked,
  // so they too must survive recovery.
  while (::read(pipe_fds[0], &byte, 1) == 1) ++observed_acks;
  ::close(pipe_fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited on its own (status " << status << ")";

  ServiceOptions options = SmallServiceOptions();
  options.wal.dir = dir.path;
  KbService recovered(options);
  std::vector<std::string> warnings;
  std::string error;
  ASSERT_TRUE(recovered.Recover(&warnings, &error)) << error;

  // The recovered prefix: markers are distinct facts, so presence of
  // Marker(i) == "ack i+1 survived".  The prefix must be contiguous and
  // cover every ack the parent observed (observed_acks - 1 mutations).
  KnowledgeBase probe;
  int survived = 0;
  {
    std::shared_ptr<const service::KbSnapshot> head =
        recovered.catalog()->Get("kb");
    ASSERT_NE(head, nullptr) << "acked LOAD lost";
    // Newline-delimit so "P(C2)" cannot match inside "P(C25)".
    std::string state = "\n";
    for (const auto& conjunct : head->kb.conjuncts()) {
      state += logic::ToString(conjunct) + "\n";
    }
    while (survived < kMutations &&
           state.find("\n" + Marker(survived) + "\n") != std::string::npos) {
      ++survived;
    }
    for (int i = survived; i < kMutations; ++i) {
      EXPECT_EQ(state.find("\n" + Marker(i) + "\n"), std::string::npos)
          << "non-contiguous recovered prefix at " << Marker(i);
    }
  }
  EXPECT_GE(survived, observed_acks - 1)
      << "an acked mutation did not survive the crash";

  // The prefix-replay oracle must agree bit-identically.
  KbService oracle(SmallServiceOptions());
  ASSERT_TRUE(oracle.Load("kb", kBaseKb, DeclareMarkers(kMutations)).ok);
  for (int i = 0; i < survived; ++i) {
    ASSERT_TRUE(oracle.Assert("kb", Marker(i)).ok);
  }
  ExpectServicesAgree(&oracle, &recovered, "kb", "after SIGKILL recovery");
}

// ---- 3. torn final record ----

TEST(WalRecoveryTest, TornFinalRecordIsDroppedSilently) {
  TempDir dir;
  {
    ServiceOptions options = SmallServiceOptions();
    options.wal.dir = dir.path;
    KbService durable(options);
    std::vector<std::string> warnings;
    std::string error;
    ASSERT_TRUE(durable.Recover(&warnings, &error));
    ASSERT_TRUE(durable.Load("kb", kBaseKb, DeclareMarkers(4)).ok);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(durable.Assert("kb", Marker(i)).ok);
    }
  }
  // Simulate a crash mid-append: a torn (undecodable) final line on the
  // newest segment.
  std::string newest, newest_name;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name > newest_name) {
      newest_name = name;
      newest = entry.path().string();
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::ofstream out(newest, std::ios::app | std::ios::binary);
    out << "{\"op\":\"ASSERT\",\"kb\":\"kb\",\"ver";  // cut mid-key
  }

  ServiceOptions options = SmallServiceOptions();
  options.wal.dir = dir.path;
  KbService recovered(options);
  std::vector<std::string> warnings;
  std::string error;
  ASSERT_TRUE(recovered.Recover(&warnings, &error)) << error;
  EXPECT_TRUE(warnings.empty())
      << "torn FINAL record must be silent: " << warnings.front();

  KbService oracle(SmallServiceOptions());
  ASSERT_TRUE(oracle.Load("kb", kBaseKb, DeclareMarkers(4)).ok);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(oracle.Assert("kb", Marker(i)).ok);
  ExpectServicesAgree(&oracle, &recovered, "kb", "after torn record");
}

// ---- 4. snapshots truncate without changing recovery ----

TEST(WalRecoveryTest, SnapshotTruncationPreservesRecoveredState) {
  TempDir dir;
  const int kMutations = 16;
  {
    ServiceOptions options = SmallServiceOptions();
    options.wal.dir = dir.path;
    options.wal.snapshot_every = 4;
    options.wal.segment_bytes = 256;  // rotate every few records
    KbService durable(options);
    std::vector<std::string> warnings;
    std::string error;
    ASSERT_TRUE(durable.Recover(&warnings, &error));
    ASSERT_TRUE(durable.Load("kb", kBaseKb, DeclareMarkers(kMutations)).ok);
    for (int i = 0; i < kMutations; ++i) {
      ASSERT_TRUE(durable.Assert("kb", Marker(i)).ok);
    }
    // The snapshot worker runs off the ack path; wait for it to land.
    for (int spin = 0; spin < 500 && durable.wal()->stats().snapshots == 0;
         ++spin) {
      ::usleep(10 * 1000);
    }
    const service::WalStats stats = durable.wal()->stats();
    EXPECT_GE(stats.snapshots, 1u) << "snapshot worker never fired";
    EXPECT_GE(stats.segments_deleted, 1u) << "snapshot did not truncate";
  }

  ServiceOptions options = SmallServiceOptions();
  options.wal.dir = dir.path;
  KbService recovered(options);
  std::vector<std::string> warnings;
  std::string error;
  ASSERT_TRUE(recovered.Recover(&warnings, &error)) << error;
  for (const std::string& warning : warnings) ADD_FAILURE() << warning;

  KbService oracle(SmallServiceOptions());
  ASSERT_TRUE(oracle.Load("kb", kBaseKb, DeclareMarkers(kMutations)).ok);
  for (int i = 0; i < kMutations; ++i) {
    ASSERT_TRUE(oracle.Assert("kb", Marker(i)).ok);
  }
  ExpectServicesAgree(&oracle, &recovered, "kb", "after truncation");
}

// The snapshot worker reads the staged state (version v), releases the
// catalog, then writes the snapshot; a mutation acked in between is at
// v + 1 and lies in the segment the snapshot rotates.  Truncation must
// keep that segment: its last record is newer than the snapshot.
TEST(WalRecoveryTest, SnapshotKeepsRecordsAckedAfterItsVersion) {
  TempDir dir;
  service::WalOptions options;
  options.dir = dir.path;
  KbWal wal(options);
  const WalRecord load = MutationRecord(WalRecord::Op::kLoad, 1, "P(C0)");
  AppendAndSync(&wal, load);
  AppendAndSync(&wal, MutationRecord(WalRecord::Op::kAssert, 2, "P(C1)"));

  std::unique_ptr<KnowledgeBase> at_v1;
  std::string error;
  ASSERT_TRUE(service::ApplyRecordToState(load, &at_v1, &error)) << error;
  ASSERT_TRUE(wal.WriteSnapshot("kb", 1, *at_v1, &error)) << error;

  uint64_t version = 0;
  const std::vector<std::string> conjuncts =
      RecoverConjuncts(dir.path, &version);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(conjuncts, (std::vector<std::string>{"P(C0)", "P(C1)"}));
}

// Writers append + sync distinct markers while segments rotate every few
// records and a snapshotter keeps writing states captured before the
// latest acks.  Every acked record must survive recovery.
TEST(WalRecoveryTest, ConcurrentSyncsRotationsAndSnapshotsKeepEveryAck) {
  TempDir dir;
  service::WalOptions options;
  options.dir = dir.path;
  options.segment_bytes = 256;
  KbWal wal(options);
  const int kWriters = 4;
  const int kPerWriter = 24;

  // Stands in for the catalog's version-assignment critical section:
  // versions are assigned, applied to the staged state and appended in
  // one order.
  std::mutex staged_mutex;
  uint64_t staged_version = 1;
  KnowledgeBase staged;
  const WalRecord load = MutationRecord(WalRecord::Op::kLoad, 1, "Q(D)");
  ASSERT_TRUE(staged.AddParsed(load.text, nullptr));
  AppendAndSync(&wal, load);

  std::atomic<int> writers_left{kWriters};
  std::vector<std::vector<std::string>> acked(kWriters);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string marker =
            "P(C" + std::to_string(t * kPerWriter + i) + ")";
        uint64_t seq = 0;
        {
          std::lock_guard<std::mutex> lock(staged_mutex);
          staged.AddParsed(marker, nullptr);
          const WalRecord record = MutationRecord(
              WalRecord::Op::kAssert, ++staged_version, marker);
          seq = wal.Append("kb", record.version,
                           service::EncodeWalRecord(record));
        }
        std::string error;
        if (seq != 0 && wal.Sync("kb", seq, &error)) {
          acked[t].push_back(marker);
        } else {
          ADD_FAILURE() << "ack of " << marker << " failed: " << error;
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  int snapshots = 0;
  while (writers_left.load() > 0) {
    uint64_t version;
    KnowledgeBase state;
    {
      std::lock_guard<std::mutex> lock(staged_mutex);
      version = staged_version;
      state = staged;
    }
    std::this_thread::yield();  // let later acks land first
    std::string error;
    EXPECT_TRUE(wal.WriteSnapshot("kb", version, state, &error)) << error;
    ++snapshots;
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GE(snapshots, 1);
  EXPECT_GE(wal.stats().segments_deleted, 1u) << "no snapshot truncated";

  uint64_t version = 0;
  const std::vector<std::string> conjuncts =
      RecoverConjuncts(dir.path, &version);
  EXPECT_EQ(version, staged_version);
  for (const std::vector<std::string>& markers : acked) {
    for (const std::string& marker : markers) {
      EXPECT_TRUE(std::find(conjuncts.begin(), conjuncts.end(), marker) !=
                  conjuncts.end())
          << "acked " << marker << " was not recovered";
    }
  }
}

// ---- 5. the 775 ms stall regression: acks never wait on maintenance ----

TEST(WalRecoveryTest, AcksNeverBlockOnThePausedMaintenanceQueue) {
  KbCatalog catalog;
  KnowledgeBase base;
  std::string parse_error;
  ASSERT_TRUE(base.AddParsed("#(P(x))[x] ~= 0.5", &parse_error));
  ASSERT_TRUE(base.AddParsed("P(C0)", &parse_error));
  catalog.Load("kb", base);

  // With the worker paused, the old fixed-cap queue (64) deadlocked the
  // 65th ack forever; now every ack returns immediately and same-KB runs
  // coalesce into one queued build.
  catalog.PauseMaintenance();
  const int kMutations = 200;
  uint64_t last_version = 0;
  for (int i = 0; i < kMutations; ++i) {
    // Distinct facts so the head count below is unambiguous.
    const std::string fact = "P(M" + std::to_string(i) + ")";
    service::MutationTicket ticket =
        catalog.Mutate("kb", [&](KnowledgeBase* kb, std::string* edit_error) {
          return kb->AddParsed(fact, edit_error);
        });
    ASSERT_TRUE(ticket.ok) << ticket.error;
    last_version = ticket.version;
  }
  // Paused + queued work: a bounded drain must time out, not hang.
  EXPECT_FALSE(catalog.DrainMaintenance(/*timeout_ms=*/50.0));
  catalog.ResumeMaintenance();
  EXPECT_TRUE(catalog.WaitForVersion("kb", last_version));
  EXPECT_TRUE(catalog.DrainMaintenance(/*timeout_ms=*/10000.0));
  EXPECT_GT(catalog.maintenance_stats().coalesced, 0u);

  // The coalesced build published the full run: head has every append.
  std::shared_ptr<const service::KbSnapshot> head = catalog.Get("kb");
  EXPECT_EQ(head->kb.conjuncts().size(), base.conjuncts().size() + kMutations);
  EXPECT_GE(head->version, last_version);
}

TEST(WalRecoveryTest, WaitForVersionTimesOutAndFailsOnDroppedKb) {
  KbCatalog catalog;
  KnowledgeBase base;
  std::string parse_error;
  ASSERT_TRUE(base.AddParsed("P(C0)", &parse_error));
  catalog.Load("kb", base);

  // A version that will never be published: bounded wait returns false.
  EXPECT_FALSE(catalog.WaitForVersion("kb", 1u << 20, /*timeout_ms=*/50.0));
  // A waiter on a KB that gets dropped must not hang.
  catalog.PauseMaintenance();
  service::MutationTicket ticket =
      catalog.Mutate("kb", [&](KnowledgeBase* kb, std::string*) {
        kb->Add(base.conjuncts()[0]);
        return true;
      });
  ASSERT_TRUE(ticket.ok);
  catalog.Drop("kb");
  EXPECT_FALSE(
      catalog.WaitForVersion("kb", ticket.version, /*timeout_ms=*/50.0));
  catalog.ResumeMaintenance();
}

// ---- 6. replica handoff through the service's real publish hook ----

TEST(WalRecoveryTest, ReplicaAnswersBitIdenticallyViaVersionHandoff) {
  ReplicationHub hub;
  ServiceOptions options = SmallServiceOptions();
  options.replication = &hub;
  KbService primary(options);

  KbCatalog replica_kbs;
  ReplicaApplier applier(&replica_kbs);
  // rwld's TAIL handshake: subscribe FIRST, then bootstrap from the
  // staged heads (a racing mutation lands in the stream and dedups).
  std::shared_ptr<service::ReplicationSubscription> sub = hub.Subscribe();
  ASSERT_TRUE(primary.Load("kb", kBaseKb, DeclareMarkers(8)).ok);

  auto pump = [&](int max_records) {
    std::string line, error;
    for (int i = 0; i < max_records; ++i) {
      if (!sub->Next(&line, /*timeout_ms=*/1000.0)) return;
      ASSERT_TRUE(applier.ApplyLine(line, &error)) << error << ": " << line;
    }
  };
  pump(1);  // the LOAD record doubles as the bootstrap here

  uint64_t acked = 0;
  for (int i = 0; i < 8; ++i) {
    KbService::MutationResult ack = primary.Assert("kb", Marker(i));
    ASSERT_TRUE(ack.ok) << ack.error;
    acked = ack.version;
  }
  pump(8);

  // Version-vector handoff: min_version = the primary ack.
  uint64_t local_version = 0;
  ASSERT_TRUE(applier.WaitForPrimaryVersion("kb", acked,
                                            /*timeout_ms=*/1000.0,
                                            &local_version));
  ASSERT_TRUE(replica_kbs.WaitForVersion("kb", local_version,
                                         /*timeout_ms=*/1000.0));
  std::shared_ptr<const service::KbSnapshot> pinned =
      replica_kbs.GetVersion("kb", local_version);
  ASSERT_NE(pinned, nullptr);

  InferenceOptions inference = SmallServiceOptions().inference;
  for (const char* query : kQueries) {
    KbService::QueryResult on_primary = primary.Query("kb", query);
    ASSERT_TRUE(on_primary.ok) << on_primary.error;
    logic::ParseResult parsed = logic::ParseFormula(query);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    Answer on_replica =
        service::AnswerOnSnapshot(*pinned, parsed.formula, inference);
    ExpectSameAnswer(on_primary.answer, on_replica,
                     std::string("replica query ") + query);
  }
}

// With no TAIL attached the hub ships nothing.  rwld's TAIL handshake —
// subscribe, then bootstrap from the staged state — still hands a late
// subscriber every version: the bootstrap holds what was assigned before
// the subscription, and the stream carries every version after it.
TEST(WalRecoveryTest, LateSubscriberGetsBootstrapThenEveryLaterRecord) {
  ReplicationHub hub;
  ServiceOptions options = SmallServiceOptions();
  options.replication = &hub;
  KbService primary(options);
  ASSERT_TRUE(primary.Load("kb", kBaseKb, DeclareMarkers(8)).ok);
  ASSERT_TRUE(primary.Assert("kb", Marker(0)).ok);

  std::shared_ptr<service::ReplicationSubscription> sub = hub.Subscribe();
  std::string line;
  EXPECT_FALSE(sub->Next(&line, /*timeout_ms=*/0.0));  // nothing shipped
  const KbCatalog::StagedState staged = primary.catalog()->Staged("kb");
  ASSERT_TRUE(staged.ok);
  KbCatalog replica_kbs;
  ReplicaApplier applier(&replica_kbs);
  std::string error;
  ASSERT_TRUE(applier.ApplyLine(
      service::EncodeWalRecord(
          service::MakeSnapshotRecord("kb", staged.version, staged.kb)),
      &error))
      << error;

  uint64_t acked = 0;
  for (int i = 1; i < 4; ++i) {
    KbService::MutationResult ack = primary.Assert("kb", Marker(i));
    ASSERT_TRUE(ack.ok) << ack.error;
    acked = ack.version;
    ASSERT_TRUE(sub->Next(&line, /*timeout_ms=*/1000.0));
    ASSERT_TRUE(applier.ApplyLine(line, &error)) << error << ": " << line;
  }
  EXPECT_FALSE(sub->Next(&line, /*timeout_ms=*/0.0));

  uint64_t local_version = 0;
  ASSERT_TRUE(applier.WaitForPrimaryVersion("kb", acked,
                                            /*timeout_ms=*/1000.0,
                                            &local_version));
  ASSERT_TRUE(replica_kbs.WaitForVersion("kb", local_version,
                                         /*timeout_ms=*/1000.0));
  ASSERT_TRUE(primary.WaitForVersion("kb", acked, /*timeout_ms=*/1000.0));
  std::shared_ptr<const service::KbSnapshot> pinned =
      replica_kbs.GetVersion("kb", local_version);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->kb.conjuncts().size(),
            primary.Snapshot("kb")->kb.conjuncts().size());
  InferenceOptions inference = SmallServiceOptions().inference;
  for (const char* query : kQueries) {
    KbService::QueryResult on_primary = primary.Query("kb", query);
    ASSERT_TRUE(on_primary.ok) << on_primary.error;
    logic::ParseResult parsed = logic::ParseFormula(query);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ExpectSameAnswer(
        on_primary.answer,
        service::AnswerOnSnapshot(*pinned, parsed.formula, inference),
        std::string("late subscriber query ") + query);
  }
}

}  // namespace
}  // namespace rwl
