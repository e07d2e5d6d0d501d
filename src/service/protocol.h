// The rwld wire protocol: newline-delimited JSON, one request or response
// object per line.
//
// Requests (fields beyond `op` are op-specific; `id` is echoed back):
//
//   {"id":1,"op":"LOAD","kb":"med","text":"#(Hep(x)|Jaun(x))[x] ~= 0.8",
//    "declare":["Eric"]}
//   {"id":2,"op":"ASSERT","kb":"med","text":"Jaun(Eric)"}
//   {"id":3,"op":"RETRACT","kb":"med","text":"Jaun(Eric)"}
//   {"id":4,"op":"QUERY","kb":"med","q":"Hep(Eric)",
//    "deadline_ms":50,"budget":1e7,"plan":"cost",
//    "engine":"gmp90","interval":0.9,
//    "min_version":12}                                   (options optional)
//   {"id":5,"op":"BATCH","kb":"med","queries":["Hep(Eric)","Jaun(Eric)"]}
//   {"id":6,"op":"STATS"}
//   {"id":7,"op":"SHUTDOWN"}
//   {"id":8,"op":"TAIL"}
//   {"id":9,"op":"WAIT","kb":"med","min_version":12}
//
// TAIL turns the connection into a replication feed: the daemon replies
// {"id":8,"ok":true,"tail":true}, then streams one WAL record per line
// (wal.h format) — first a SNAPSHOT bootstrap per live KB, then every
// mutation as it acks — until the connection closes.  A replica rwld
// started with --replica-of consumes this feed (replica.h).
//
// Read-your-writes: mutations ack as soon as their WAL order is fixed;
// the successor snapshot publishes asynchronously.  The daemon tracks the
// highest acked version per KB per connection (SessionState below) and
// floors every QUERY/BATCH's min_version with it, so a connection always
// observes its own mutations even mid-publication.  The optional
// "min_version" request field raises the floor further (e.g. to read a
// version acked on another connection).
//
// WAIT blocks until the daemon holds the named version — on a replica,
// until the feed has applied that PRIMARY version (the response carries
// the mapped local version); on a primary, until it publishes.  It runs
// no query, so its round trip is pure replication/publication lag —
// rwlload's replica-lag probe — independent of how expensive the
// tenant's queries happen to be on the new version.
//
// Responses:
//
//   {"id":1,"ok":true,"kb":"med","version":12}                 (mutations)
//   {"id":4,"ok":true,"kb":"med","version":12,"status":"point",
//    "value":0.8,"method":"...","converged":true,"latency_ms":0.41}
//   {"id":5,"ok":true,"answers":[{...},{...}]}                 (batch)
//   {"id":6,"ok":true,"kbs":[...],"scheduler":{...}}           (stats)
//   {"id":4,"ok":false,"error":"..."}                          (any failure)
//
// The parser accepts exactly the JSON this protocol needs (flat objects,
// string arrays, numbers, bools, null, string escapes) — no dependency.
#ifndef RWL_SERVICE_PROTOCOL_H_
#define RWL_SERVICE_PROTOCOL_H_

#include <charconv>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/service/service.h"

namespace rwl::service {

// A parsed JSON value (object keys keep insertion order irrelevant — the
// protocol looks fields up by name).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;                           // kArray
  std::vector<std::pair<std::string, Json>> fields;  // kObject

  // Field lookup on an object; null when absent or not an object.
  const Json* Find(const std::string& key) const;
};

// Parses one complete JSON value; trailing non-whitespace is an error.
bool ParseJson(const std::string& text, Json* out, std::string* error);

std::string JsonEscape(const std::string& s);

// A double on the wire: the shortest text that parses back to the same
// bits (std::to_chars' round-trip guarantee), so a client decodes exactly
// the double the library computed.  JSON has no NaN or infinity: those
// go out as null.
struct Double {
  double value;
};

// A string on the wire, JSON-escaped (JsonEscape's bytes).
struct Escaped {
  const std::string& text;
};

// Builds one reply or WAL record in one reserved string, with
// ostream-style chaining but none of ostringstream's stream and locale
// machinery per line.  Integers print in decimal via std::to_chars.
class Reply {
 public:
  explicit Reply(size_t reserve) { out_.reserve(reserve); }

  Reply& operator<<(std::string_view text) {
    out_ += text;
    return *this;
  }
  Reply& operator<<(char c) {
    out_ += c;
    return *this;
  }
  template <typename Integer,
            typename = std::enable_if_t<std::is_integral_v<Integer>>>
  Reply& operator<<(Integer value) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    return *this;
  }
  Reply& operator<<(Double number);
  Reply& operator<<(Escaped text);

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

struct Request {
  enum class Op {
    kLoad,
    kAssert,
    kRetract,
    kQuery,
    kBatch,
    kStats,
    kShutdown,
    kTail,
    kWait,
  };
  Op op = Op::kStats;
  int64_t id = 0;
  std::string kb;
  std::string text;                  // LOAD/ASSERT/RETRACT payload
  std::vector<std::string> declare;  // LOAD extra constants
  std::string query;                 // QUERY
  std::vector<std::string> queries;  // BATCH
  RequestOptions options;  // deadline_ms / budget / plan / fixed_n /
                           // engine / interval
};

// Parses one request line.  On failure *error carries a message suitable
// for an error response.
bool ParseRequest(const std::string& line, Request* out, std::string* error);

// Per-connection read-your-writes state: the highest acked mutation
// version per KB seen on this connection.  The daemon records every
// successful mutation ack and floors QUERY/BATCH min_version with it
// before dispatch (each connection serves one request at a time, so no
// locking).
struct SessionState {
  std::map<std::string, uint64_t> acked_versions;

  void RecordAck(const std::string& kb, uint64_t version) {
    uint64_t& acked = acked_versions[kb];
    if (version > acked) acked = version;
  }
  uint64_t AckedVersion(const std::string& kb) const {
    auto it = acked_versions.find(kb);
    return it == acked_versions.end() ? 0 : it->second;
  }
};

// ---- response serialization ----

std::string ErrorResponse(int64_t id, const std::string& error);
std::string MutationResponse(int64_t id, const std::string& kb,
                             const KbService::MutationResult& result);
std::string QueryResponse(int64_t id, const KbService::QueryResult& result);
std::string BatchResponse(int64_t id,
                          const std::vector<KbService::QueryResult>& results);
// `replica` (optional) adds the replica's applied version vector — set by
// a --replica-of daemon so clients can observe lag.
class ReplicaApplier;
std::string StatsResponse(int64_t id, const KbService& service,
                          const ReplicaApplier* replica = nullptr);
std::string ShutdownResponse(int64_t id);
std::string TailAckResponse(int64_t id);
// WAIT success: `version` is the version now held locally (on a replica,
// the local version the requested primary version mapped to).
std::string WaitResponse(int64_t id, const std::string& kb,
                         uint64_t version);

}  // namespace rwl::service

#endif  // RWL_SERVICE_PROTOCOL_H_
