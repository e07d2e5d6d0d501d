// Concurrency stress test for the rwld service layer: snapshot isolation
// under concurrent mutation.
//
// 8 writer threads interleave ASSERT/RETRACT against one tenant while 32
// reader threads query it.  Every reader answer must be BIT-IDENTICAL to
// a fresh single-threaded query against the snapshot version the service
// pinned for it — a cross-version cache leak (an adopted memo entry
// replayed against the wrong KB version) would break the identity.
//
// Readers hit the snapshots' answer memos while writers publish: a memo
// hit is held to the same bit-identity, and the storm must produce hits.
//
// Also covered here: the scheduler's admission control and round-robin
// fairness (deterministically, with latch-blocked jobs), the catalog's
// version chain, and the old-pin guarantee (a snapshot held across later
// mutations still answers as its own version).
//
// Iteration counts scale down under sanitizers via RWL_STRESS_OPS.
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/core/planner.h"
#include "src/logic/parser.h"
#include "src/service/catalog.h"
#include "src/service/protocol.h"
#include "src/service/scheduler.h"
#include "src/service/service.h"

namespace rwl {
namespace {

using service::KbService;
using service::KbSnapshot;
using service::QueryScheduler;
using service::SchedulerOptions;
using service::ServiceOptions;

int StressOps(int fallback) {
  const char* env = std::getenv("RWL_STRESS_OPS");
  if (env == nullptr) return fallback;
  int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

// The service configuration shared by the stress tests: a small unary KB
// and a shallow sweep, so thousands of queries stay in CI budget.
ServiceOptions StressServiceOptions() {
  ServiceOptions options;
  options.scheduler.num_threads = 8;
  options.inference.tolerances = semantics::ToleranceVector::Uniform(0.1);
  options.inference.limit.domain_sizes = {4, 8, 12};
  return options;
}

const char kBaseKb[] =
    "#(P(x))[x] ~= 0.3\n"
    "#(Q(x) ; P(x))[x] ~= 0.8\n"
    "P(C0)\n"
    "Q(C1)\n";

// The mutation pool writers toggle and the queries readers ask.  Every
// fact stays inside the loaded vocabulary (C0..C3 appear in the base KB
// or the declare list), so the shared snapshot context covers them;
// "P(Fresh0)" exercises the private-context path for query-only symbols.
const char* kFacts[] = {"P(C1)", "Q(C0)", "!P(C2)", "Q(C3)", "!Q(C2)",
                        "P(C3)"};
const char* kQueries[] = {"P(C0)",
                          "Q(C0)",
                          "Q(C1)",
                          "(P(C2) | Q(C2))",
                          "(#(P(x))[x] <~ 0.5)",
                          "P(Fresh0)"};

// Bit-level equality of two answers (the differential batch check's
// SameAnswer, restated for gtest diagnostics).
void ExpectIdenticalAnswers(const Answer& service_answer,
                            const Answer& fresh_answer,
                            const std::string& query, uint64_t version,
                            std::atomic<int>* mismatches) {
  const bool same =
      service_answer.status == fresh_answer.status &&
      service_answer.value == fresh_answer.value &&
      service_answer.lo == fresh_answer.lo &&
      service_answer.hi == fresh_answer.hi &&
      service_answer.method == fresh_answer.method &&
      service_answer.converged == fresh_answer.converged;
  if (!same) {
    mismatches->fetch_add(1, std::memory_order_relaxed);
    ADD_FAILURE() << "answer for '" << query << "' at version " << version
                  << " diverged from the fresh single-threaded answer: "
                  << "service(status=" << StatusToString(service_answer.status)
                  << " value=" << service_answer.value
                  << " method=" << service_answer.method << ") vs fresh(status="
                  << StatusToString(fresh_answer.status)
                  << " value=" << fresh_answer.value
                  << " method=" << fresh_answer.method << ")";
  }
}

TEST(ServiceStressTest, SnapshotIsolationUnderConcurrentMutation) {
  ServiceOptions options = StressServiceOptions();
  KbService kb_service(options);
  KbService::MutationResult loaded =
      kb_service.Load("tenant", kBaseKb, {"C2", "C3"});
  ASSERT_TRUE(loaded.ok) << loaded.error;

  const int writer_ops = StressOps(24);
  const int reader_ops = StressOps(24) * 3 / 2;
  const InferenceOptions fresh_options = kb_service.EffectiveOptions({});

  std::atomic<int> mismatches{0};
  std::atomic<int> hard_errors{0};
  std::atomic<int> memo_hits{0};

  // ---- 8 writers ----
  std::vector<std::thread> writers;
  for (int w = 0; w < 8; ++w) {
    writers.emplace_back([&, w] {
      std::mt19937 rng(1000 + w);
      const int num_facts = static_cast<int>(std::size(kFacts));
      for (int i = 0; i < writer_ops; ++i) {
        const char* fact = kFacts[rng() % num_facts];
        if (rng() % 2 == 0) {
          KbService::MutationResult result =
              kb_service.Assert("tenant", fact);
          if (!result.ok) hard_errors.fetch_add(1);
        } else {
          // Retraction races are expected (another writer may have
          // removed the fact first); only unexpected failures count.
          KbService::MutationResult result =
              kb_service.Retract("tenant", fact);
          if (!result.ok &&
              result.error.find("no conjunct matches") == std::string::npos) {
            hard_errors.fetch_add(1);
          }
        }
      }
    });
  }

  // ---- 32 readers ----
  std::vector<std::thread> readers;
  std::mutex pins_mutex;
  std::vector<std::pair<std::shared_ptr<const KbSnapshot>, std::string>>
      pinned;  // old snapshots revisited after the storm
  for (int r = 0; r < 32; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(2000 + r);
      const int num_queries = static_cast<int>(std::size(kQueries));
      for (int i = 0; i < reader_ops; ++i) {
        const std::string query = kQueries[rng() % num_queries];
        KbService::QueryResult result = kb_service.Query("tenant", query);
        if (!result.ok) {
          hard_errors.fetch_add(1);
          continue;
        }
        ASSERT_NE(result.snapshot, nullptr);
        if (result.answer.plan != nullptr && result.answer.plan->from_memo) {
          memo_hits.fetch_add(1, std::memory_order_relaxed);
        }

        // The oracle: a fresh single-threaded query against the pinned
        // version's KB — new context, no shared caches.
        logic::ParseResult parsed = logic::ParseFormula(query);
        ASSERT_TRUE(parsed.ok());
        Answer fresh =
            DegreeOfBelief(result.snapshot->kb, parsed.formula, fresh_options);
        ExpectIdenticalAnswers(result.answer, fresh, query,
                               result.snapshot->version, &mismatches);

        if (i == 0) {
          std::lock_guard<std::mutex> lock(pins_mutex);
          pinned.emplace_back(result.snapshot, query);
        }
      }
    });
  }

  for (auto& thread : writers) thread.join();
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(hard_errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(memo_hits.load(), 0);

  // ---- old pins: snapshots held across the whole storm still answer as
  // their own version, through their own (possibly cache-adopted)
  // context ----
  for (const auto& [snapshot, query] : pinned) {
    logic::ParseResult parsed = logic::ParseFormula(query);
    ASSERT_TRUE(parsed.ok());
    Answer via_context =
        service::AnswerOnSnapshot(*snapshot, parsed.formula, fresh_options);
    Answer fresh = DegreeOfBelief(snapshot->kb, parsed.formula, fresh_options);
    ExpectIdenticalAnswers(via_context, fresh, query, snapshot->version,
                           &mismatches);
  }
  EXPECT_EQ(mismatches.load(), 0);

  // The storm actually exercised mutation: once background minting
  // drains, the head has moved past version 1.
  kb_service.DrainMaintenance();
  std::shared_ptr<const KbSnapshot> head = kb_service.Snapshot("tenant");
  ASSERT_NE(head, nullptr);
  EXPECT_GT(head->version, loaded.version);
}

TEST(ServiceStressTest, AsyncMintingWindowKeepsReadersConsistent) {
  // Holds the publication window open deterministically: an acked
  // mutation must leave concurrent readers on the old published head
  // (bit-identical to a fresh query against that version), become
  // readable through RequestOptions::min_version the moment it publishes,
  // and the patched successor must answer bit-identically to a fresh
  // single-threaded query against the new KB.
  KbService kb_service(StressServiceOptions());
  KbService::MutationResult loaded =
      kb_service.Load("tenant", kBaseKb, {"C2", "C3"});
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const InferenceOptions fresh_options = kb_service.EffectiveOptions({});
  std::atomic<int> mismatches{0};

  kb_service.PauseMaintenance();
  KbService::MutationResult acked = kb_service.Assert("tenant", "P(C1)");
  ASSERT_TRUE(acked.ok) << acked.error;
  EXPECT_GT(acked.version, loaded.version);

  // Window open: the published head is still the load version...
  KbService::QueryResult during = kb_service.Query("tenant", "P(C0)");
  ASSERT_TRUE(during.ok) << during.error;
  EXPECT_EQ(during.snapshot->version, loaded.version);
  {
    logic::ParseResult parsed = logic::ParseFormula("P(C0)");
    ASSERT_TRUE(parsed.ok());
    Answer fresh =
        DegreeOfBelief(during.snapshot->kb, parsed.formula, fresh_options);
    ExpectIdenticalAnswers(during.answer, fresh, "P(C0)",
                           during.snapshot->version, &mismatches);
  }
  // ...but a second mutation builds on the acked one (WAL order), even
  // though neither has published yet.  The queued build COALESCES: one
  // task carrying the newest staged tail, not one task per ack — acks
  // must never wait on queue capacity.
  KbService::MutationResult acked2 = kb_service.Assert("tenant", "Q(C0)");
  ASSERT_TRUE(acked2.ok) << acked2.error;
  EXPECT_GT(acked2.version, acked.version);
  EXPECT_EQ(kb_service.maintenance_stats().queue_depth, 1u);

  kb_service.ResumeMaintenance();
  // Read-your-writes: min_version pins at (or after) the acked version.
  service::RequestOptions read_own;
  read_own.min_version = acked2.version;
  KbService::QueryResult after = kb_service.Query("tenant", "P(C1)", read_own);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_GE(after.snapshot->version, acked2.version);
  EXPECT_EQ(after.snapshot->kb.conjuncts().size(),
            during.snapshot->kb.conjuncts().size() + 2);
  {
    logic::ParseResult parsed = logic::ParseFormula("P(C1)");
    ASSERT_TRUE(parsed.ok());
    Answer fresh =
        DegreeOfBelief(after.snapshot->kb, parsed.formula, fresh_options);
    ExpectIdenticalAnswers(after.answer, fresh, "P(C1)",
                           after.snapshot->version, &mismatches);
  }
  EXPECT_EQ(mismatches.load(), 0);

  kb_service.DrainMaintenance();
  const auto stats = kb_service.maintenance_stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  // The two acks coalesced into ONE mint publishing both versions at
  // once (WaitForVersion on the first is satisfied by the higher head).
  EXPECT_EQ(stats.minted, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  // Both asserts were signature-preserving appends: patched, not rebuilt.
  EXPECT_EQ(stats.patched, 1u);
  EXPECT_EQ(stats.rebuilt, 0u);
}

TEST(ServiceStressTest, BatchPinsOneVersionForAllQueries) {
  KbService kb_service(StressServiceOptions());
  ASSERT_TRUE(kb_service.Load("t", kBaseKb, {"C2", "C3"}).ok);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    bool present = false;
    while (!stop.load(std::memory_order_relaxed)) {
      if (present) {
        kb_service.Retract("t", "Q(C0)");
      } else {
        kb_service.Assert("t", "Q(C0)");
      }
      present = !present;
    }
  });

  for (int i = 0; i < StressOps(24) / 2; ++i) {
    std::vector<KbService::QueryResult> results = kb_service.Batch(
        "t", {"P(C0)", "Q(C0)", "P(C0)", "(#(P(x))[x] <~ 0.5)"});
    uint64_t version = 0;
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok) << result.error;
      ASSERT_NE(result.snapshot, nullptr);
      if (version == 0) version = result.snapshot->version;
      // One snapshot for the whole batch, whatever the writer does.
      EXPECT_EQ(result.snapshot->version, version);
    }
    // Duplicate queries against one pinned snapshot answer identically.
    EXPECT_EQ(results[0].answer.value, results[2].answer.value);
    EXPECT_EQ(results[0].answer.method, results[2].answer.method);
  }
  stop.store(true);
  writer.join();
}

TEST(ServiceStressTest, AdmissionControlRejectsBeyondQueueDepth) {
  SchedulerOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 2;
  QueryScheduler scheduler(options);

  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  auto blocking_job = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    ran.fetch_add(1);
  };

  // First job occupies the worker; the queue holds two more; the fourth
  // submit must be rejected, and a different tenant must still be
  // admitted (per-tenant caps).
  ASSERT_TRUE(scheduler.Submit("a", blocking_job));
  // Wait until the worker has dequeued the first job (queue drains to 0).
  while (scheduler.stats().queued > 0 && scheduler.stats().running == 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(scheduler.Submit("a", blocking_job));
  ASSERT_TRUE(scheduler.Submit("a", blocking_job));
  EXPECT_FALSE(scheduler.Submit("a", blocking_job))
      << "fourth submit must trip the per-tenant admission cap";
  EXPECT_TRUE(scheduler.Submit("b", [&] { ran.fetch_add(1); }))
      << "a full tenant queue must not block other tenants";

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  while (ran.load() < 4) std::this_thread::yield();

  QueryScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 4u);
}

TEST(ServiceStressTest, RoundRobinServesTenantsFairly) {
  SchedulerOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 64;
  QueryScheduler scheduler(options);

  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::string> order;
  std::mutex order_mutex;

  auto tenant_job = [&](const std::string& tenant) {
    return [&, tenant] {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return release; });
      }
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tenant);
    };
  };

  // Hold the single worker with a gate job, then let tenant "a" flood the
  // queue before "b" and "c" each submit one job.
  ASSERT_TRUE(scheduler.Submit("gate", tenant_job("gate")));
  while (scheduler.stats().running == 0) std::this_thread::yield();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.Submit("a", tenant_job("a")));
  }
  ASSERT_TRUE(scheduler.Submit("b", tenant_job("b")));
  ASSERT_TRUE(scheduler.Submit("c", tenant_job("c")));

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  while (true) {
    std::lock_guard<std::mutex> lock(order_mutex);
    if (order.size() == 9) break;
  }

  // Round-robin: b's and c's single jobs are served within the first few
  // turns instead of queuing behind a's flood of six.
  size_t b_position = 0;
  size_t c_position = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == "b") b_position = i;
    if (order[i] == "c") c_position = i;
  }
  EXPECT_LT(b_position, 4u)
      << "tenant b's single job was starved by tenant a's flood";
  EXPECT_LT(c_position, 4u)
      << "tenant c's single job was starved by tenant a's flood";
}

TEST(ServiceStressTest, OpenFormulasRejectedAtAdmission) {
  // The engines abort the process on an unbound variable (programming
  // error inside the library); at the service boundary the formula comes
  // off the wire, so open formulas must be rejected cleanly instead of
  // killing the daemon.
  KbService kb_service(StressServiceOptions());
  ASSERT_TRUE(kb_service.Load("kb", "#(P(x))[x] ~= 0.3\n").ok);

  KbService::QueryResult open = kb_service.Query("kb", "P(y)");
  EXPECT_FALSE(open.ok);
  EXPECT_NE(open.error.find("free variables"), std::string::npos)
      << open.error;
  EXPECT_FALSE(kb_service.Assert("kb", "P(y)").ok);
  EXPECT_FALSE(kb_service.Load("kb2", "P(y)\n").ok);

  // The service survives and still answers closed queries.
  EXPECT_TRUE(kb_service.Query("kb", "(#(P(x))[x] <~ 0.5)").ok);
}

TEST(ServiceStressTest, ProtocolRejectsOutOfRangeNumbers) {
  // Numeric fields are cast to integers or clock ticks; a cast from an
  // out-of-range double is undefined, so the parser must refuse them.
  for (const char* field :
       {R"("fixed_n":1e12)", R"("fixed_n":-1)", R"("fixed_n":8.5)",
        R"("fixed_n":"8")", R"("min_version":-1)", R"("min_version":1e300)",
        R"("min_version":0.5)", R"("budget":-5)", R"("budget":1e999)",
        R"("deadline_ms":-1)", R"("deadline_ms":1e300)", R"("id":1e30)",
        R"("id":0.5)"}) {
    const std::string line =
        std::string(R"j({"op":"QUERY","kb":"k","q":"P(A)",)j") + field + "}";
    service::Request request;
    std::string error;
    EXPECT_FALSE(service::ParseRequest(line, &request, &error)) << line;
    EXPECT_NE(error.find("must be"), std::string::npos) << line << error;
  }

  service::Request request;
  std::string error;
  ASSERT_TRUE(service::ParseRequest(
      R"j({"id":7,"op":"QUERY","kb":"k","q":"P(A)","fixed_n":16,)j"
      R"j("min_version":3,"budget":2.5e6,"deadline_ms":20.5})j",
      &request, &error))
      << error;
  EXPECT_EQ(request.id, 7);
  EXPECT_EQ(request.options.fixed_domain_size, 16);
  EXPECT_EQ(request.options.min_version, 3u);
  EXPECT_EQ(request.options.work_budget, 2.5e6);
  EXPECT_EQ(request.options.deadline_ms, 20.5);
}

TEST(ServiceStressTest, VersionChainAndRetractSemantics) {
  KbService kb_service(StressServiceOptions());
  KbService::MutationResult v1 = kb_service.Load("kb", "#(P(x))[x] ~= 0.3\n");
  ASSERT_TRUE(v1.ok);

  KbService::MutationResult v2 = kb_service.Assert("kb", "P(C0)");
  ASSERT_TRUE(v2.ok);
  EXPECT_GT(v2.version, v1.version);
  // The ack fixes the version; the successor publishes asynchronously.
  ASSERT_TRUE(kb_service.WaitForVersion("kb", v2.version));

  // Unknown conjunct: no version is minted.
  KbService::MutationResult bad = kb_service.Retract("kb", "P(C1)");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(kb_service.Snapshot("kb")->version, v2.version);

  // Retract keeps the vocabulary: C0 stays a constant, so the world
  // space — and the degree of belief — matches version 1's vocabulary
  // extended with C0, not version 1 itself.
  KbService::MutationResult v3 = kb_service.Retract("kb", "P(C0)");
  ASSERT_TRUE(v3.ok);
  ASSERT_TRUE(kb_service.WaitForVersion("kb", v3.version));
  std::shared_ptr<const KbSnapshot> head = kb_service.Snapshot("kb");
  EXPECT_EQ(head->version, v3.version);
  EXPECT_EQ(head->kb.conjuncts().size(), 1u);
  EXPECT_TRUE(head->kb.vocabulary().FindFunction("C0").has_value());

  // Queries on the pinned old snapshot still see P(C0).
  KbService::QueryResult now = kb_service.Query("kb", "P(C0)");
  ASSERT_TRUE(now.ok);
  EXPECT_EQ(now.snapshot->version, v3.version);
}

}  // namespace
}  // namespace rwl
