// Wire doubles round-trip exactly: every number an answer carries —
// value, lo, hi — goes out as the shortest text that parses back to the
// same bits, and a non-finite one goes out as JSON null.  Checked on
// 10,000 seeded random doubles and on the answers for the example KBs.
//
// The reply serializers are pinned byte for byte by golden strings:
// point, interval and unknown answers, errors, mutation acks and batches.
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/protocol.h"
#include "src/service/service.h"

namespace rwl::service {
namespace {

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// QueryResponse -> ParseJson; the decoded object.
Json RoundTrip(const KbService::QueryResult& result) {
  Json decoded;
  std::string error;
  const std::string text = QueryResponse(0, result);
  EXPECT_TRUE(ParseJson(text, &decoded, &error)) << error << " in " << text;
  return decoded;
}

// Expects `field` to decode to exactly `want` (null when non-finite).
void ExpectWireExact(const Json& decoded, const std::string& field,
                     double want) {
  const Json* got = decoded.Find(field);
  ASSERT_NE(got, nullptr) << field;
  if (!std::isfinite(want)) {
    EXPECT_EQ(got->type, Json::Type::kNull) << field << " = " << want;
    return;
  }
  ASSERT_EQ(got->type, Json::Type::kNumber) << field;
  EXPECT_EQ(Bits(got->number), Bits(want))
      << field << ": sent " << want << ", decoded " << got->number;
}

KbService::QueryResult PointResult(double value) {
  KbService::QueryResult result;
  result.ok = true;
  result.answer.status = Answer::Status::kPoint;
  result.answer.value = value;
  result.answer.method = "test";
  return result;
}

TEST(ProtocolTest, RandomDoublesRoundTripBitExactly) {
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                0.8,
                                0.1,
                                1.0 / 3.0,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::epsilon()};
  while (values.size() < 10000) {
    // Half arbitrary bit patterns (every exponent, subnormals, NaN and
    // infinity payloads included), half probabilities.
    values.push_back(values.size() % 2 == 0 ? std::bit_cast<double>(rng())
                                            : unit(rng));
  }
  for (size_t i = 0; i < values.size(); i += 2) {
    const double value = values[i];
    const double other = values[i + 1];
    const Json point = RoundTrip(PointResult(value));
    ExpectWireExact(point, "value", value);

    KbService::QueryResult interval;
    interval.ok = true;
    interval.answer.status = Answer::Status::kInterval;
    interval.answer.lo = other;
    interval.answer.hi = value;
    interval.answer.method = "test";
    const Json decoded = RoundTrip(interval);
    ExpectWireExact(decoded, "lo", other);
    ExpectWireExact(decoded, "hi", value);
  }
  // Non-finite values go out as null; the object still parses.
  for (double value : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    ExpectWireExact(RoundTrip(PointResult(value)), "value", value);
  }
}

std::string ReadExample(const std::string& name) {
  std::ifstream file(std::string(RWL_EXAMPLES_DIR) + "/kbs/" + name);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

// The example KBs' answers — symbolic points and, forced through the
// profile sweep, values with full-width mantissas and their series.
TEST(ProtocolTest, ExampleKbAnswersRoundTripBitExactly) {
  struct Case {
    const char* file;
    std::vector<std::string> queries;
  };
  const std::vector<Case> cases = {
      {"hepatitis.rwl", {"Hep(Eric)", "Jaun(Eric)", "!Hep(Eric)"}},
      {"specificity.rwl", {"Fly(Tweety)", "Bird(Tweety)"}},
      {"taxonomy.rwl", {"Swims(Opus)", "Animal(Opus)"}},
  };
  ServiceOptions options;
  options.scheduler.num_threads = 1;
  options.inference.tolerances = semantics::ToleranceVector::Uniform(0.04);
  options.inference.limit.domain_sizes = {8, 16, 24};
  KbService kb_service(options);
  size_t checked = 0;
  for (const Case& c : cases) {
    const std::string text = ReadExample(c.file);
    ASSERT_FALSE(text.empty()) << c.file;
    KbService::MutationResult loaded = kb_service.Load(c.file, text);
    ASSERT_TRUE(loaded.ok) << c.file << ": " << loaded.error;
    for (const char* engine : {"", "profile"}) {
      RequestOptions request;
      request.engine = engine;
      for (const std::string& query : c.queries) {
        KbService::QueryResult result =
            kb_service.Query(c.file, query, request);
        ASSERT_TRUE(result.ok) << result.error;
        const Json decoded = RoundTrip(result);
        const Answer& answer = result.answer;
        if (answer.status == Answer::Status::kPoint) {
          ExpectWireExact(decoded, "value", answer.value);
          ++checked;
        } else if (answer.status == Answer::Status::kInterval) {
          ExpectWireExact(decoded, "lo", answer.lo);
          ExpectWireExact(decoded, "hi", answer.hi);
          ++checked;
        }
        for (const engines::SeriesPoint& point : answer.series) {
          ExpectWireExact(RoundTrip(PointResult(point.probability)), "value",
                          point.probability);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 20u);
}

// ---- golden reply bytes ----

std::shared_ptr<const KbSnapshot> GoldenSnapshot() {
  auto snapshot = std::make_shared<KbSnapshot>();
  snapshot->name = "med";
  snapshot->version = 12;
  return snapshot;
}

KbService::QueryResult GoldenPoint() {
  KbService::QueryResult result = PointResult(0.8);
  result.snapshot = GoldenSnapshot();
  result.answer.method = "symbolic";
  result.answer.converged = true;
  result.latency_ms = 0.41;
  return result;
}

KbService::QueryResult GoldenInterval() {
  KbService::QueryResult result;
  result.ok = true;
  result.snapshot = GoldenSnapshot();
  result.answer.status = Answer::Status::kInterval;
  result.answer.lo = 0.25;
  result.answer.hi = 1.0 / 3.0;
  result.answer.method = "calibrated";
  result.answer.converged = true;
  result.latency_ms = 2.0;
  return result;
}

// An unknown answer whose explanation needs every kind of escape; no
// snapshot, so no kb/version fields.
KbService::QueryResult GoldenUnknown() {
  KbService::QueryResult result;
  result.ok = true;
  result.answer.status = Answer::Status::kUnknown;
  result.answer.value = 0.5;  // not sent for an unknown answer
  result.answer.method = "none";
  result.answer.explanation = "query has \"x\"\n\tfree\\\x01";
  result.latency_ms = -0.0;
  return result;
}

KbService::QueryResult GoldenError() {
  KbService::QueryResult result;
  result.error = "overloaded: tenant queue is full";
  return result;
}

TEST(ProtocolTest, QueryRepliesMatchGoldenBytes) {
  EXPECT_EQ(QueryResponse(4, GoldenPoint()),
            "{\"id\":4,\"ok\":true,\"kb\":\"med\",\"version\":12,"
            "\"status\":\"point\",\"value\":0.8,\"method\":\"symbolic\","
            "\"converged\":true,\"latency_ms\":0.41}");
  EXPECT_EQ(QueryResponse(-9007199254740992, GoldenInterval()),
            "{\"id\":-9007199254740992,\"ok\":true,\"kb\":\"med\","
            "\"version\":12,\"status\":\"interval\",\"lo\":0.25,"
            "\"hi\":0.3333333333333333,\"method\":\"calibrated\","
            "\"converged\":true,\"latency_ms\":2}");
  EXPECT_EQ(QueryResponse(0, GoldenUnknown()),
            "{\"id\":0,\"ok\":true,\"status\":\"unknown\","
            "\"method\":\"none\",\"converged\":false,"
            "\"explanation\":\"query has \\\"x\\\"\\n\\tfree\\\\\\u0001\","
            "\"latency_ms\":-0}");
  KbService::QueryResult not_finite = GoldenPoint();
  not_finite.answer.value = std::numeric_limits<double>::infinity();
  not_finite.answer.converged = false;
  EXPECT_EQ(QueryResponse(5, not_finite),
            "{\"id\":5,\"ok\":true,\"kb\":\"med\",\"version\":12,"
            "\"status\":\"point\",\"value\":null,\"method\":\"symbolic\","
            "\"converged\":false,\"latency_ms\":0.41}");
  EXPECT_EQ(QueryResponse(7, GoldenError()),
            "{\"id\":7,\"ok\":false,"
            "\"error\":\"overloaded: tenant queue is full\"}");
}

TEST(ProtocolTest, ErrorAndMutationRepliesMatchGoldenBytes) {
  EXPECT_EQ(ErrorResponse(-3, "bad \"line\"\r\n"),
            "{\"id\":-3,\"ok\":false,\"error\":\"bad \\\"line\\\"\\r\\n\"}");
  KbService::MutationResult acked;
  acked.ok = true;
  acked.version = 18446744073709551615u;
  EXPECT_EQ(MutationResponse(1, "m\"d", acked),
            "{\"id\":1,\"ok\":true,\"kb\":\"m\\\"d\","
            "\"version\":18446744073709551615}");
  KbService::MutationResult refused;
  refused.error = "no conjunct matches 'Jaun(Tom)'";
  refused.version = 3;
  EXPECT_EQ(MutationResponse(2, "med", refused),
            "{\"id\":2,\"ok\":false,"
            "\"error\":\"no conjunct matches 'Jaun(Tom)'\"}");
}

TEST(ProtocolTest, BatchReplyMatchesGoldenBytes) {
  EXPECT_EQ(
      BatchResponse(9, {GoldenPoint(), GoldenError(), GoldenInterval(),
                        GoldenUnknown()}),
      "{\"id\":9,\"ok\":true,\"answers\":["
      "{\"ok\":true,\"kb\":\"med\",\"version\":12,\"status\":\"point\","
      "\"value\":0.8,\"method\":\"symbolic\",\"converged\":true,"
      "\"latency_ms\":0.41},"
      "{\"ok\":false,\"error\":\"overloaded: tenant queue is full\"},"
      "{\"ok\":true,\"kb\":\"med\",\"version\":12,\"status\":\"interval\","
      "\"lo\":0.25,\"hi\":0.3333333333333333,\"method\":\"calibrated\","
      "\"converged\":true,\"latency_ms\":2},"
      "{\"ok\":true,\"status\":\"unknown\",\"method\":\"none\","
      "\"converged\":false,"
      "\"explanation\":\"query has \\\"x\\\"\\n\\tfree\\\\\\u0001\","
      "\"latency_ms\":-0}]}");
  EXPECT_EQ(BatchResponse(10, {GoldenError()}),
            "{\"id\":10,\"ok\":true,\"answers\":["
            "{\"ok\":false,\"error\":\"overloaded: tenant queue is full\"}]}");
}

}  // namespace
}  // namespace rwl::service
