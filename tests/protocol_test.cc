// Wire doubles round-trip exactly: every number an answer carries —
// value, lo, hi — goes out as the shortest text that parses back to the
// same bits, and a non-finite one goes out as JSON null.  Checked on
// 10,000 seeded random doubles and on the answers for the example KBs.
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
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

// AnswerJson -> ParseJson; the decoded object.
Json RoundTrip(const KbService::QueryResult& result) {
  Json decoded;
  std::string error;
  const std::string text = AnswerJson(result);
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

}  // namespace
}  // namespace rwl::service
