// The service's per-snapshot answer memo (service/catalog.h):
//
//   * a hit is bit-identical — status, value, lo, hi, method, converged and
//     the whole series — to a fresh single-threaded DegreeOfBelief on the
//     pinned KB, including across an ASSERT -> RETRACT round trip;
//   * a hit carries a fresh PlanTrace (from_cache, from_memo, no step run);
//   * a deadline-cut answer is never served to a later request;
//   * requests differing in an answer-affecting option get separate
//     entries, while the deadline is not part of the key;
//   * the per-snapshot entry cap holds, the successor mint replays at most
//     KbCatalog::kMaxReplayedAnswers entries, and caching_enabled = false
//     turns the memo off;
//   * KbService::AnswerMemoized (rwld's probe on the connection thread)
//     answers only hits — the same bits as Query's hit, without a
//     scheduler submission — and declines, without waiting, a cold memo,
//     an unpublished min_version, a parse error, an open formula and an
//     unknown KB, all of which Query still answers or reports.
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/core/inference.h"
#include "src/core/planner.h"
#include "src/logic/parser.h"
#include "src/service/catalog.h"
#include "src/service/service.h"

namespace rwl {
namespace {

using service::KbCatalog;
using service::KbService;
using service::KbSnapshot;
using service::RequestOptions;
using service::ServiceOptions;

ServiceOptions MemoServiceOptions() {
  ServiceOptions options;
  options.scheduler.num_threads = 2;
  options.inference.tolerances = semantics::ToleranceVector::Uniform(0.1);
  options.inference.limit.domain_sizes = {4, 8, 12};
  return options;
}

const char kKb[] =
    "#(Hep(x) ; Jaun(x))[x] ~= 0.8\n"
    "Jaun(Eric)\n";

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectBitIdentical(const Answer& got, const Answer& want,
                        const std::string& what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(Bits(got.value), Bits(want.value)) << what;
  EXPECT_EQ(Bits(got.lo), Bits(want.lo)) << what;
  EXPECT_EQ(Bits(got.hi), Bits(want.hi)) << what;
  EXPECT_EQ(got.method, want.method) << what;
  EXPECT_EQ(got.converged, want.converged) << what;
  ASSERT_EQ(got.series.size(), want.series.size()) << what;
  for (size_t i = 0; i < got.series.size(); ++i) {
    EXPECT_EQ(got.series[i].domain_size, want.series[i].domain_size) << what;
    EXPECT_EQ(Bits(got.series[i].tolerance_scale),
              Bits(want.series[i].tolerance_scale))
        << what;
    EXPECT_EQ(Bits(got.series[i].probability),
              Bits(want.series[i].probability))
        << what;
    EXPECT_EQ(got.series[i].well_defined, want.series[i].well_defined)
        << what;
  }
}

// The oracle: a fresh single-threaded query against the pinned version's
// KB under the options the service ran the request with.
Answer Fresh(const KbService& kb_service, const KbSnapshot& snapshot,
             const std::string& query, const RequestOptions& request) {
  logic::ParseResult parsed = logic::ParseFormula(query);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return DegreeOfBelief(snapshot.kb, parsed.formula,
                        kb_service.EffectiveOptions(request));
}

bool FromMemo(const KbService::QueryResult& result) {
  return result.answer.plan != nullptr && result.answer.plan->from_memo;
}

// Asks `query`, checks the answer against the fresh oracle, and returns
// the result.
KbService::QueryResult AskAndCheck(KbService* kb_service,
                                   const std::string& query,
                                   const RequestOptions& request = {}) {
  KbService::QueryResult result = kb_service->Query("med", query, request);
  EXPECT_TRUE(result.ok) << result.error;
  if (!result.ok) return result;
  ExpectBitIdentical(result.answer,
                     Fresh(*kb_service, *result.snapshot, query, request),
                     query + " @v" + std::to_string(result.snapshot->version));
  return result;
}

size_t MemoSize(const KbService& kb_service) {
  return kb_service.Snapshot("med")->context->MemoizedAnswers().size();
}

TEST(AnswerMemoTest, HitIsBitIdenticalToFreshAnswer) {
  KbService kb_service(MemoServiceOptions());
  ASSERT_TRUE(kb_service.Load("med", kKb, {"Tom"}).ok);
  RequestOptions profile;
  profile.engine = "profile";  // a sweep: the answer carries a series
  bool saw_series = false;
  for (const RequestOptions& request : {RequestOptions{}, profile}) {
    for (const std::string query : {"Hep(Eric)", "Hep(Tom)", "Jaun(Tom)"}) {
      KbService::QueryResult miss = AskAndCheck(&kb_service, query, request);
      ASSERT_TRUE(miss.ok);
      EXPECT_FALSE(FromMemo(miss)) << query;
      KbService::QueryResult hit = AskAndCheck(&kb_service, query, request);
      ASSERT_TRUE(hit.ok);
      ASSERT_TRUE(FromMemo(hit)) << query;
      ExpectBitIdentical(hit.answer, miss.answer, query);
      saw_series = saw_series || !hit.answer.series.empty();
      // A fresh trace: no step ran, and its time is the hit's own.
      const PlanTrace& trace = *hit.answer.plan;
      EXPECT_TRUE(trace.from_cache);
      EXPECT_TRUE(trace.steps.empty());
      EXPECT_FALSE(trace.deadline_hit);
      EXPECT_EQ(trace.mode, miss.answer.plan->mode);
      EXPECT_GE(trace.total_ms, 0.0);
      EXPECT_LE(trace.total_ms, hit.latency_ms);
    }
  }
  EXPECT_TRUE(saw_series);
  const QueryContext::CacheStats stats =
      kb_service.Snapshot("med")->context->cache_stats();
  EXPECT_EQ(stats.answer_hits, 6u);
  EXPECT_EQ(stats.answer_misses, 6u);
}

TEST(AnswerMemoTest, HitsStayBitIdenticalAcrossAssertRetractRoundTrip) {
  KbService kb_service(MemoServiceOptions());
  KbService::MutationResult loaded = kb_service.Load("med", kKb, {"Tom"});
  ASSERT_TRUE(loaded.ok) << loaded.error;
  AskAndCheck(&kb_service, "Hep(Eric)");
  KbService::QueryResult loaded_tom = AskAndCheck(&kb_service, "Hep(Tom)");
  ASSERT_TRUE(loaded_tom.ok);

  // ASSERT: the successor is minted warm — the predecessor's memo keys
  // are replayed into its memo before publication, so the first read of
  // each is already a hit, and it answers for the NEW KB.
  KbService::MutationResult asserted = kb_service.Assert("med", "Jaun(Tom)");
  ASSERT_TRUE(asserted.ok) << asserted.error;
  ASSERT_TRUE(kb_service.WaitForVersion("med", asserted.version));
  KbService::QueryResult tom = AskAndCheck(&kb_service, "Hep(Tom)");
  ASSERT_TRUE(tom.ok);
  EXPECT_EQ(tom.snapshot->version, asserted.version);
  EXPECT_TRUE(FromMemo(tom));
  EXPECT_EQ(tom.answer.status, Answer::Status::kPoint);
  EXPECT_EQ(tom.answer.value, 0.8);
  EXPECT_TRUE(FromMemo(AskAndCheck(&kb_service, "Hep(Eric)")));

  // RETRACT back to the loaded KB: the replayed answers are the loaded
  // version's again.
  KbService::MutationResult retracted =
      kb_service.Retract("med", "Jaun(Tom)");
  ASSERT_TRUE(retracted.ok) << retracted.error;
  ASSERT_TRUE(kb_service.WaitForVersion("med", retracted.version));
  KbService::QueryResult back = AskAndCheck(&kb_service, "Hep(Tom)");
  ASSERT_TRUE(back.ok);
  EXPECT_EQ(back.snapshot->version, retracted.version);
  EXPECT_TRUE(FromMemo(back));
  ExpectBitIdentical(back.answer, loaded_tom.answer, "Hep(Tom) round trip");
  EXPECT_TRUE(FromMemo(AskAndCheck(&kb_service, "Hep(Eric)")));
}

TEST(AnswerMemoTest, DeadlineCutAnswerIsNeverServedLater) {
  KbService kb_service(MemoServiceOptions());
  ASSERT_TRUE(kb_service.Load("med", kKb, {"Tom"}).ok);
  RequestOptions rushed;
  rushed.deadline_ms = 1e-6;  // past before the first candidate starts
  KbService::QueryResult cut = kb_service.Query("med", "Hep(Tom)", rushed);
  ASSERT_TRUE(cut.ok) << cut.error;
  ASSERT_NE(cut.answer.plan, nullptr);
  ASSERT_TRUE(cut.answer.plan->deadline_hit);
  EXPECT_EQ(MemoSize(kb_service), 0u);

  // The same key without a deadline: computed, not served from the cut
  // answer, and only then memoized.
  KbService::QueryResult full = AskAndCheck(&kb_service, "Hep(Tom)");
  ASSERT_TRUE(full.ok);
  EXPECT_FALSE(FromMemo(full));
  EXPECT_FALSE(full.answer.plan->deadline_hit);
  EXPECT_EQ(MemoSize(kb_service), 1u);
  EXPECT_TRUE(FromMemo(AskAndCheck(&kb_service, "Hep(Tom)")));
}

TEST(AnswerMemoTest, AnswerAffectingOptionsGetSeparateEntries) {
  KbService kb_service(MemoServiceOptions());
  ASSERT_TRUE(kb_service.Load("med", kKb, {"Tom"}).ok);
  RequestOptions budget;
  budget.work_budget = 1e12;
  RequestOptions engine;
  engine.engine = "profile";
  RequestOptions plan;
  plan.plan = "cost";
  RequestOptions interval;
  interval.interval_confidence = 0.9;
  RequestOptions fixed;
  fixed.fixed_domain_size = 6;
  size_t entries = 0;
  for (const RequestOptions& request :
       {RequestOptions{}, budget, engine, plan, interval, fixed}) {
    KbService::QueryResult first = AskAndCheck(&kb_service, "Hep(Eric)", request);
    EXPECT_FALSE(FromMemo(first));
    EXPECT_EQ(MemoSize(kb_service), ++entries);
    EXPECT_TRUE(FromMemo(AskAndCheck(&kb_service, "Hep(Eric)", request)));
    EXPECT_EQ(MemoSize(kb_service), entries);
  }
  // The deadline is not part of the key: a generous one hits the default
  // request's entry.
  RequestOptions generous;
  generous.deadline_ms = 60000.0;
  EXPECT_TRUE(FromMemo(AskAndCheck(&kb_service, "Hep(Eric)", generous)));
  EXPECT_EQ(MemoSize(kb_service), entries);
}

TEST(AnswerMemoTest, SuccessorReplaysAtMostTheReplayCap) {
  KbService kb_service(MemoServiceOptions());
  ASSERT_TRUE(kb_service.Load("med", kKb, {"Tom"}).ok);
  const size_t asked = KbCatalog::kMaxReplayedAnswers + 8;
  for (size_t i = 0; i < asked; ++i) {
    RequestOptions request;
    request.work_budget = 1e12 + static_cast<double>(i);
    AskAndCheck(&kb_service, "Hep(Eric)", request);
  }
  EXPECT_EQ(MemoSize(kb_service), asked);
  KbService::MutationResult asserted = kb_service.Assert("med", "Jaun(Tom)");
  ASSERT_TRUE(asserted.ok) << asserted.error;
  ASSERT_TRUE(kb_service.WaitForVersion("med", asserted.version));
  EXPECT_EQ(MemoSize(kb_service), KbCatalog::kMaxReplayedAnswers);
  // The first entries, in store order, were replayed; the rest were not.
  RequestOptions first;
  first.work_budget = 1e12;
  EXPECT_TRUE(FromMemo(AskAndCheck(&kb_service, "Hep(Eric)", first)));
  RequestOptions last;
  last.work_budget = 1e12 + static_cast<double>(asked - 1);
  EXPECT_FALSE(FromMemo(AskAndCheck(&kb_service, "Hep(Eric)", last)));
}

TEST(AnswerMemoTest, CachingDisabledTurnsTheMemoOff) {
  ServiceOptions options = MemoServiceOptions();
  options.catalog.caching_enabled = false;
  KbService kb_service(options);
  ASSERT_TRUE(kb_service.Load("med", kKb, {"Tom"}).ok);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(FromMemo(AskAndCheck(&kb_service, "Hep(Eric)")));
  }
  EXPECT_EQ(MemoSize(kb_service), 0u);
  const QueryContext::CacheStats stats =
      kb_service.Snapshot("med")->context->cache_stats();
  EXPECT_EQ(stats.answer_hits, 0u);
  EXPECT_EQ(stats.answer_misses, 0u);
}

TEST(AnswerMemoTest, EntryCapHolds) {
  KnowledgeBase kb;
  std::string error;
  ASSERT_TRUE(kb.AddParsed(kKb, &error)) << error;
  QueryContext ctx(kb.vocabulary(), kb.AsFormula());
  const logic::FormulaPtr query = logic::ParseFormula("Hep(Eric)").formula;
  auto entry = [&](double value) {
    auto answer = std::make_shared<Answer>();
    answer->status = Answer::Status::kPoint;
    answer->value = value;
    return std::make_shared<const QueryContext::MemoizedAnswer>(
        QueryContext::MemoizedAnswer{
            query, std::make_shared<const InferenceOptions>(),
            std::move(answer), true});
  };
  const size_t cap = QueryContext::kMaxMemoizedAnswers;
  for (size_t i = 0; i < cap + 5; ++i) {
    ctx.StoreAnswer("k" + std::to_string(i), entry(static_cast<double>(i)));
  }
  EXPECT_EQ(ctx.MemoizedAnswers().size(), cap);
  ASSERT_NE(ctx.LookupAnswer("k0"), nullptr);
  EXPECT_EQ(ctx.LookupAnswer("k0")->answer->value, 0.0);
  EXPECT_NE(ctx.LookupAnswer("k" + std::to_string(cap - 1)), nullptr);
  EXPECT_EQ(ctx.LookupAnswer("k" + std::to_string(cap)), nullptr);

  // A deadline-cut answer is refused even below the cap.
  QueryContext fresh(kb.vocabulary(), kb.AsFormula());
  auto cut_answer = std::make_shared<Answer>();
  auto cut_trace = std::make_shared<PlanTrace>();
  cut_trace->deadline_hit = true;
  cut_answer->plan = cut_trace;
  fresh.StoreAnswer("cut", std::make_shared<const QueryContext::MemoizedAnswer>(
                               QueryContext::MemoizedAnswer{
                                   query,
                                   std::make_shared<const InferenceOptions>(),
                                   std::move(cut_answer), true}));
  EXPECT_EQ(fresh.LookupAnswer("cut"), nullptr);
  EXPECT_TRUE(fresh.MemoizedAnswers().empty());
}

// What a declined probe must leave behind: nothing.
void ExpectUntouched(const KbService::QueryResult& result) {
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.snapshot, nullptr);
  EXPECT_EQ(result.answer.plan, nullptr);
}

TEST(AnswerMemoTest, ProbeAnswersOnlyHitsWithQuerysBits) {
  KbService kb_service(MemoServiceOptions());
  ASSERT_TRUE(kb_service.Load("med", kKb, {"Tom"}).ok);
  RequestOptions profile;
  profile.engine = "profile";
  RequestOptions klm;
  klm.engine = "klm";  // inapplicable here: unknown, with an explanation
  bool saw_explanation = false;
  for (const RequestOptions& request : {RequestOptions{}, profile, klm}) {
    for (const std::string query : {"Hep(Eric)", "Hep(Tom)"}) {
      KbService::QueryResult probed;
      EXPECT_FALSE(kb_service.AnswerMemoized("med", query, request, &probed))
          << query << " on a cold snapshot";
      ExpectUntouched(probed);

      KbService::QueryResult asked = AskAndCheck(&kb_service, query, request);
      ASSERT_TRUE(asked.ok) << asked.error;
      const uint64_t submitted = kb_service.scheduler_stats().submitted;
      ASSERT_TRUE(kb_service.AnswerMemoized("med", query, request, &probed))
          << query;
      EXPECT_EQ(kb_service.scheduler_stats().submitted, submitted);
      ASSERT_TRUE(probed.ok);
      EXPECT_TRUE(probed.error.empty());
      ASSERT_NE(probed.snapshot, nullptr);
      EXPECT_EQ(probed.snapshot, asked.snapshot);
      ExpectBitIdentical(probed.answer, asked.answer, query);
      EXPECT_EQ(probed.answer.explanation, asked.answer.explanation) << query;
      saw_explanation =
          saw_explanation || (probed.answer.status == Answer::Status::kUnknown &&
                              !probed.answer.explanation.empty());
      ASSERT_TRUE(FromMemo(probed));
      EXPECT_TRUE(probed.answer.plan->from_cache);
      EXPECT_TRUE(probed.answer.plan->steps.empty());
      EXPECT_GE(probed.latency_ms, probed.answer.plan->total_ms);
      // Query's own hit on the same key: the same bits again.
      KbService::QueryResult hit = AskAndCheck(&kb_service, query, request);
      ASSERT_TRUE(FromMemo(hit));
      ExpectBitIdentical(hit.answer, probed.answer, query);
    }
  }
  EXPECT_TRUE(saw_explanation);
  // The declined probes counted no miss: each computed answer counts once.
  const QueryContext::CacheStats stats =
      kb_service.Snapshot("med")->context->cache_stats();
  EXPECT_EQ(stats.answer_misses, 6u);
  EXPECT_EQ(stats.answer_hits, 12u);
}

TEST(AnswerMemoTest, ProbeNeverWaitsForAnUnpublishedVersion) {
  KbService kb_service(MemoServiceOptions());
  KbService::MutationResult loaded = kb_service.Load("med", kKb, {"Tom"});
  ASSERT_TRUE(loaded.ok) << loaded.error;
  AskAndCheck(&kb_service, "Hep(Eric)");
  RequestOptions ahead;
  ahead.min_version = loaded.version + 1;
  KbService::QueryResult probed;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(kb_service.AnswerMemoized("med", "Hep(Eric)", ahead, &probed));
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_LT(waited_ms, 10.0);  // half the 20 ms publish grace
  ExpectUntouched(probed);
  // The published version itself is a hit.
  RequestOptions published;
  published.min_version = loaded.version;
  EXPECT_TRUE(
      kb_service.AnswerMemoized("med", "Hep(Eric)", published, &probed));
}

TEST(AnswerMemoTest, ProbeDeclinesWhatQueryReports) {
  KbService kb_service(MemoServiceOptions());
  ASSERT_TRUE(kb_service.Load("med", kKb, {"Tom"}).ok);
  struct Case {
    const char* kb;
    const char* query;
    const char* error_prefix;
  };
  for (const Case& c :
       {Case{"med", "Hep(", "query parse error: "},
        Case{"med", "Hep(y)", "query has free variables: y"},
        Case{"nosuch", "Hep(Eric)", "no knowledge base named 'nosuch'"}}) {
    for (int attempt = 0; attempt < 2; ++attempt) {  // never memoized
      KbService::QueryResult probed;
      EXPECT_FALSE(kb_service.AnswerMemoized(c.kb, c.query, {}, &probed))
          << c.query;
      ExpectUntouched(probed);
      KbService::QueryResult asked = kb_service.Query(c.kb, c.query);
      EXPECT_FALSE(asked.ok) << c.query;
      EXPECT_EQ(asked.error.rfind(c.error_prefix, 0), 0u)
          << c.query << ": " << asked.error;
    }
  }
}

}  // namespace
}  // namespace rwl
