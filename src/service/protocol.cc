#include "src/service/protocol.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "src/core/planner.h"
#include "src/service/replica.h"

namespace rwl::service {
namespace {

// ---- recursive-descent JSON parser ----

struct Parser {
  const std::string& text;
  size_t pos = 0;
  int depth = 0;
  std::string error;

  // ParseValue recurses per nesting level; the protocol's requests are
  // depth ≤ 3, and without a cap one crafted line of repeated '[' would
  // overflow the connection thread's stack and kill the daemon.
  static constexpr int kMaxDepth = 64;

  explicit Parser(const std::string& t) : text(t) {}

  bool Fail(const std::string& message) {
    error = message + " at byte " + std::to_string(pos);
    return false;
  }

  void SkipSpace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r' ||
            text[pos] == '\n')) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos >= text.size() || text[pos] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool ParseHex4(unsigned* out) {
    if (pos + 4 > text.size()) return Fail("truncated \\u escape");
    *out = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text[pos++];
      *out <<= 4;
      if (h >= '0' && h <= '9') *out |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') *out |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') *out |= static_cast<unsigned>(h - 'A' + 10);
      else return Fail("bad \\u escape");
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return Fail("truncated escape");
        char esc = text[pos++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            if (!ParseHex4(&code)) return false;
            // Surrogate pair: combine the halves into one code point (a
            // lone half would otherwise be emitted as invalid UTF-8).
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (pos + 2 > text.size() || text[pos] != '\\' ||
                  text[pos + 1] != 'u') {
                return Fail("unpaired high surrogate");
              }
              pos += 2;
              unsigned low = 0;
              if (!ParseHex4(&low)) return false;
              if (low < 0xDC00 || low > 0xDFFF) {
                return Fail("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              return Fail("unpaired low surrogate");
            }
            // UTF-8 encode (the protocol carries L≈ text, which is
            // ASCII; this keeps foreign payloads lossless).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else if (code < 0x10000) {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xF0 | (code >> 18));
              *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      *out += c;
    }
    return Fail("unterminated string");
  }

  bool ParseValue(Json* out) {
    SkipSpace();
    if (pos >= text.size()) return Fail("unexpected end of input");
    if (depth >= kMaxDepth) return Fail("nesting too deep");
    ++depth;
    bool ok = ParseValueInner(out);
    --depth;
    return ok;
  }

  bool ParseValueInner(Json* out) {
    char c = text[pos];
    if (c == '{') {
      ++pos;
      out->type = Json::Type::kObject;
      SkipSpace();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        std::string key;
        SkipSpace();
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        Json value;
        if (!ParseValue(&value)) return false;
        out->fields.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (pos >= text.size()) return Fail("unterminated object");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == '}') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out->type = Json::Type::kArray;
      SkipSpace();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        Json item;
        if (!ParseValue(&item)) return false;
        out->items.push_back(std::move(item));
        SkipSpace();
        if (pos >= text.size()) return Fail("unterminated array");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == ']') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->string);
    }
    if (text.compare(pos, 4, "true") == 0) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      out->type = Json::Type::kBool;
      out->boolean = false;
      pos += 5;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      out->type = Json::Type::kNull;
      pos += 4;
      return true;
    }
    // Number.
    size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return Fail("unexpected character");
    char* end = nullptr;
    std::string token = text.substr(start, pos - start);
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    out->type = Json::Type::kNumber;
    out->number = value;
    return true;
  }
};

// Typed field accessors with error reporting.
bool WantString(const Json& request, const std::string& key,
                std::string* out, std::string* error) {
  const Json* field = request.Find(key);
  if (field == nullptr || field->type != Json::Type::kString) {
    *error = "missing string field '" + key + "'";
    return false;
  }
  *out = field->string;
  return true;
}

// Reads an optional numeric field into *out (0 when absent).  A present
// field must be a number in [lo, hi], whole for an integer T: casting a
// double outside T's range is undefined.
template <typename T>
bool BoundedNumber(const Json& request, const std::string& key, double lo,
                   double hi, T* out, std::string* error) {
  const Json* field = request.Find(key);
  const double value = field == nullptr ? 0.0 : field->number;
  if (field != nullptr &&
      (field->type != Json::Type::kNumber || !(value >= lo && value <= hi) ||
       (std::is_integral_v<T> && value != std::floor(value)))) {
    char range[96];
    std::snprintf(range, sizeof(range), " in [%.17g, %.17g]", lo, hi);
    *error = "field '" + key + "' must be " +
             (std::is_integral_v<T> ? "an integer" : "a number") + range;
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// The integers a double carries exactly.
constexpr double kMaxExact = 9007199254740992.0;  // 2^53

bool StringArray(const Json& request, const std::string& key,
                 std::vector<std::string>* out, std::string* error) {
  const Json* field = request.Find(key);
  if (field == nullptr) return true;  // optional
  if (field->type != Json::Type::kArray) {
    *error = "field '" + key + "' must be an array of strings";
    return false;
  }
  for (const Json& item : field->items) {
    if (item.type != Json::Type::kString) {
      *error = "field '" + key + "' must be an array of strings";
      return false;
    }
    out->push_back(item.string);
  }
  return true;
}

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// One answer object without its opening brace, from "ok" to the closing
// brace: QueryResponse writes it after `{"id":N,`, BATCH after a bare '{'.
void AppendAnswerFields(const KbService::QueryResult& result, Reply* out) {
  if (!result.ok) {
    *out << "\"ok\":false,\"error\":\"" << Escaped{result.error} << "\"}";
    return;
  }
  const Answer& answer = result.answer;
  *out << "\"ok\":true";
  if (result.snapshot != nullptr) {
    *out << ",\"kb\":\"" << Escaped{result.snapshot->name}
         << "\",\"version\":" << result.snapshot->version;
  }
  *out << ",\"status\":\"" << StatusToString(answer.status) << '"';
  if (answer.status == Answer::Status::kPoint) {
    *out << ",\"value\":" << Double{answer.value};
  } else if (answer.status == Answer::Status::kInterval) {
    *out << ",\"lo\":" << Double{answer.lo} << ",\"hi\":" << Double{answer.hi};
  }
  *out << ",\"method\":\"" << Escaped{answer.method} << "\",\"converged\":"
       << (answer.converged ? "true" : "false");
  if (answer.status == Answer::Status::kUnknown &&
      !answer.explanation.empty()) {
    *out << ",\"explanation\":\"" << Escaped{answer.explanation} << '"';
  }
  *out << ",\"latency_ms\":" << Double{result.latency_ms} << '}';
}

// Room for an answer's fixed fields and numbers plus its strings.
size_t AnswerReserve(const KbService::QueryResult& result) {
  return 192 + result.error.size() + result.answer.method.size() +
         result.answer.explanation.size();
}

}  // namespace

const Json* Json::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool ParseJson(const std::string& text, Json* out, std::string* error) {
  Parser parser(text);
  if (!parser.ParseValue(out)) {
    *error = parser.error;
    return false;
  }
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    *error = "trailing content after JSON value";
    return false;
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

Reply& Reply::operator<<(Double number) {
  if (!std::isfinite(number.value)) return *this << "null";
  char buf[32];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), number.value).ptr);
  return *this;
}

Reply& Reply::operator<<(Escaped text) {
  AppendEscaped(text.text, &out_);
  return *this;
}

bool ParseRequest(const std::string& line, Request* out, std::string* error) {
  Json json;
  if (!ParseJson(line, &json, error)) return false;
  if (json.type != Json::Type::kObject) {
    *error = "request must be a JSON object";
    return false;
  }
  if (!BoundedNumber(json, "id", -kMaxExact, kMaxExact, &out->id, error)) {
    return false;
  }

  std::string op;
  if (!WantString(json, "op", &op, error)) return false;
  if (op == "LOAD") out->op = Request::Op::kLoad;
  else if (op == "ASSERT") out->op = Request::Op::kAssert;
  else if (op == "RETRACT") out->op = Request::Op::kRetract;
  else if (op == "QUERY") out->op = Request::Op::kQuery;
  else if (op == "BATCH") out->op = Request::Op::kBatch;
  else if (op == "STATS") out->op = Request::Op::kStats;
  else if (op == "SHUTDOWN") out->op = Request::Op::kShutdown;
  else if (op == "TAIL") out->op = Request::Op::kTail;
  else if (op == "WAIT") out->op = Request::Op::kWait;
  else {
    *error = "unknown op '" + op + "'";
    return false;
  }

  switch (out->op) {
    case Request::Op::kLoad:
      if (!WantString(json, "kb", &out->kb, error)) return false;
      if (!WantString(json, "text", &out->text, error)) return false;
      if (!StringArray(json, "declare", &out->declare, error)) return false;
      break;
    case Request::Op::kAssert:
    case Request::Op::kRetract:
      if (!WantString(json, "kb", &out->kb, error)) return false;
      if (!WantString(json, "text", &out->text, error)) return false;
      break;
    case Request::Op::kQuery:
      if (!WantString(json, "kb", &out->kb, error)) return false;
      if (!WantString(json, "q", &out->query, error)) return false;
      break;
    case Request::Op::kBatch: {
      if (!WantString(json, "kb", &out->kb, error)) return false;
      const Json* queries = json.Find("queries");
      if (queries == nullptr || queries->type != Json::Type::kArray ||
          queries->items.empty()) {
        *error = "BATCH needs a non-empty 'queries' array";
        return false;
      }
      if (!StringArray(json, "queries", &out->queries, error)) return false;
      break;
    }
    case Request::Op::kWait:
      if (!WantString(json, "kb", &out->kb, error)) return false;
      if (json.Find("min_version") == nullptr) {
        *error = "WAIT needs 'min_version'";
        return false;
      }
      break;
    case Request::Op::kStats:
    case Request::Op::kShutdown:
    case Request::Op::kTail:
      break;
  }

  // A deadline of at most a day keeps the planner's tick count in range.
  if (!BoundedNumber(json, "deadline_ms", 0.0, 86400000.0,
                     &out->options.deadline_ms, error) ||
      !BoundedNumber(json, "budget", 0.0, std::numeric_limits<double>::max(),
                     &out->options.work_budget, error) ||
      !BoundedNumber(json, "min_version", 0.0, kMaxExact,
                     &out->options.min_version, error) ||
      !BoundedNumber(json, "fixed_n", 0.0, 2147483647.0,
                     &out->options.fixed_domain_size, error)) {
    return false;
  }
  const Json* plan = json.Find("plan");
  if (plan != nullptr) {
    if (plan->type != Json::Type::kString ||
        (plan->string != "fidelity" && plan->string != "cost")) {
      *error = "field 'plan' must be \"fidelity\" or \"cost\"";
      return false;
    }
    out->options.plan = plan->string;
  }
  const Json* engine = json.Find("engine");
  if (engine != nullptr) {
    if (engine->type != Json::Type::kString || engine->string.empty()) {
      *error = "field 'engine' must be a non-empty strategy name";
      return false;
    }
    out->options.engine = engine->string;
  }
  const Json* interval = json.Find("interval");
  if (interval != nullptr) {
    if (interval->type != Json::Type::kNumber || interval->number <= 0.0 ||
        interval->number >= 1.0) {
      *error = "field 'interval' must be a confidence in (0,1)";
      return false;
    }
    out->options.interval_confidence = interval->number;
  }
  return true;
}

std::string ErrorResponse(int64_t id, const std::string& error) {
  Reply out(48 + error.size());
  out << "{\"id\":" << id << ",\"ok\":false,\"error\":\"" << Escaped{error}
      << "\"}";
  return out.Take();
}

std::string MutationResponse(int64_t id, const std::string& kb,
                             const KbService::MutationResult& result) {
  if (!result.ok) return ErrorResponse(id, result.error);
  return WaitResponse(id, kb, result.version);
}

std::string QueryResponse(int64_t id, const KbService::QueryResult& result) {
  if (!result.ok) return ErrorResponse(id, result.error);
  Reply out(24 + AnswerReserve(result));
  out << "{\"id\":" << id << ',';
  AppendAnswerFields(result, &out);
  return out.Take();
}

std::string BatchResponse(
    int64_t id, const std::vector<KbService::QueryResult>& results) {
  size_t reserve = 48;
  for (const auto& result : results) reserve += AnswerReserve(result);
  Reply out(reserve);
  out << "{\"id\":" << id << ",\"ok\":true,\"answers\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    out << (i > 0 ? ",{" : "{");
    AppendAnswerFields(results[i], &out);
  }
  out << "]}";
  return out.Take();
}

std::string StatsResponse(int64_t id, const KbService& service,
                          const ReplicaApplier* replica) {
  Reply out(1024);
  out << "{\"id\":" << id << ",\"ok\":true,\"kbs\":[";
  bool first = true;
  for (const auto& snapshot : service.Heads()) {
    if (!first) out << ",";
    first = false;
    QueryContext::CacheStats cache = snapshot->context->cache_stats();
    out << "{\"name\":\"" << Escaped{snapshot->name}
        << "\",\"version\":" << snapshot->version
        << ",\"conjuncts\":" << snapshot->kb.conjuncts().size()
        << ",\"finite_hits\":" << cache.finite_hits
        << ",\"finite_misses\":" << cache.finite_misses
        << ",\"blob_hits\":" << cache.blob_hits
        << ",\"blob_bytes\":" << cache.blob_bytes
        << ",\"deltas_patched\":" << cache.deltas_patched
        << ",\"deltas_rebuilt\":" << cache.deltas_rebuilt
        << ",\"world_lists_patched\":" << cache.world_lists_patched
        << ",\"world_lists_dropped\":" << cache.world_lists_dropped
        << ",\"analyses_prewarmed\":" << cache.analyses_prewarmed
        << ",\"answer_hits\":" << cache.answer_hits
        << ",\"answer_misses\":" << cache.answer_misses << "}";
  }
  QueryScheduler::Stats stats = service.scheduler_stats();
  KbCatalog::MaintenanceStats maintenance = service.maintenance_stats();
  out << "],\"scheduler\":{\"threads\":" << stats.threads
      << ",\"submitted\":" << stats.submitted
      << ",\"rejected\":" << stats.rejected
      << ",\"completed\":" << stats.completed
      << ",\"queued\":" << stats.queued << ",\"running\":" << stats.running
      << "},\"maintenance\":{\"queue_depth\":" << maintenance.queue_depth
      << ",\"minted\":" << maintenance.minted
      << ",\"patched\":" << maintenance.patched
      << ",\"rebuilt\":" << maintenance.rebuilt
      << ",\"discarded\":" << maintenance.discarded
      << ",\"coalesced\":" << maintenance.coalesced << "}";
  if (const KbWal* wal = service.wal()) {
    WalStats ws = wal->stats();
    out << ",\"wal\":{\"appends\":" << ws.appends
        << ",\"fsyncs\":" << ws.fsyncs << ",\"snapshots\":" << ws.snapshots
        << ",\"segments_deleted\":" << ws.segments_deleted
        << ",\"fsync_p50_us\":" << Double{ws.fsync_p50_us}
        << ",\"fsync_p99_us\":" << Double{ws.fsync_p99_us}
        << ",\"fsync_max_us\":" << Double{ws.fsync_max_us} << "}";
  }
  if (replica != nullptr) {
    out << ",\"replica\":{\"records_applied\":" << replica->records_applied()
        << ",\"records_skipped\":" << replica->records_skipped()
        << ",\"applied\":[";
    bool first_kb = true;
    for (const auto& [name, versions] : replica->AppliedVersions()) {
      if (!first_kb) out << ",";
      first_kb = false;
      out << "{\"name\":\"" << Escaped{name}
          << "\",\"primary_version\":" << versions.primary
          << ",\"local_version\":" << versions.local << "}";
    }
    out << "]}";
  }
  out << "}";
  return out.Take();
}

std::string ShutdownResponse(int64_t id) {
  Reply out(40);
  out << "{\"id\":" << id << ",\"ok\":true,\"shutdown\":true}";
  return out.Take();
}

std::string TailAckResponse(int64_t id) {
  Reply out(40);
  out << "{\"id\":" << id << ",\"ok\":true,\"tail\":true}";
  return out.Take();
}

// Also the mutation ack: the same {"id","ok","kb","version"} object.
std::string WaitResponse(int64_t id, const std::string& kb,
                         uint64_t version) {
  Reply out(72 + kb.size());
  out << "{\"id\":" << id << ",\"ok\":true,\"kb\":\"" << Escaped{kb}
      << "\",\"version\":" << version << "}";
  return out.Take();
}

}  // namespace rwl::service
