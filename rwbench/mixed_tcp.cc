// The mixed_tcp workload: rwld on loopback, one reading connection and one
// connection that toggles marker facts and reads through its session's
// read-your-writes floor.  The traced run adds an in-process shadow that
// replays the writer's schedule through the protocol functions rwld calls,
// to split a TCP op into transport, protocol and service time.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "rwbench/driver.h"
#include "rwbench/tcp.h"

namespace rwbench {

using rwl::service::Json;
using rwl::service::JsonEscape;
using rwl::service::KbService;

namespace {

// The writer turns every kMutateEvery-th op into a marker toggle.
constexpr uint64_t kMutateEvery = 16;

struct Tenant {
  const Item* item = nullptr;
  const Reference* plain = nullptr;
  const Reference* marked = nullptr;  // null: the tenant is never mutated
};

std::string QueryLine(const Item& item) {
  return "{\"op\":\"QUERY\",\"kb\":\"" + JsonEscape(item.id) + "\",\"q\":\"" +
         JsonEscape(item.query) + "\"}";
}

std::string LoadLine(const Item& item) {
  std::string line = "{\"op\":\"LOAD\",\"kb\":\"" + JsonEscape(item.id) +
                     "\",\"text\":\"" + JsonEscape(item.kb) +
                     "\",\"declare\":[";
  const std::vector<std::string> declare = Declares(item, Variant::kMixed);
  for (size_t i = 0; i < declare.size(); ++i) {
    line += (i > 0 ? ",\"" : "\"") + JsonEscape(declare[i]) + "\"";
  }
  return line + "]}";
}

std::string MutationLine(const Item& item, bool assert_phase) {
  return std::string("{\"op\":\"") + (assert_phase ? "ASSERT" : "RETRACT") +
         "\",\"kb\":\"" + JsonEscape(item.id) + "\",\"text\":\"" +
         JsonEscape(item.marker) + "\"}";
}

double Number(const Json* object, const char* key) {
  const Json* field = object == nullptr ? nullptr : object->Find(key);
  return field != nullptr && field->type == Json::Type::kNumber ? field->number
                                                                 : 0.0;
}

// Parses a response line; false unless it is an object with "ok":true.
bool ParseOk(const std::string& line, Json* json) {
  std::string error;
  if (!rwl::service::ParseJson(line, json, &error)) return false;
  const Json* ok = json->Find("ok");
  return ok != nullptr && ok->type == Json::Type::kBool && ok->boolean;
}

// The daemon counters the traced run reports deltas of.
struct DaemonStats {
  double rejected = 0, minted = 0, patched = 0, coalesced = 0;
};

DaemonStats ReadStats(TcpClient* control) {
  DaemonStats stats;
  std::string line;
  Json json;
  if (!control->RoundTrip("{\"op\":\"STATS\"}", &line) || !ParseOk(line, &json)) {
    return stats;
  }
  stats.rejected = Number(json.Find("scheduler"), "rejected");
  stats.minted = Number(json.Find("maintenance"), "minted");
  stats.patched = Number(json.Find("maintenance"), "patched");
  stats.coalesced = Number(json.Find("maintenance"), "coalesced");
  return stats;
}

// The writer's toggle state, carried across timed phases.
struct WriterState {
  std::vector<bool> marked;
  uint64_t op = 0;
  std::string last_kb;
  uint64_t last_version = 0;
};

// One timed segment: both connections run whole passes from a common start
// until `seconds` have elapsed; the span ends when WAIT returns for the
// writer's last acked version.  Fills *segment.
void RunPhase(const Config& config, const std::vector<Tenant>& tenants,
              TcpClient* reader, TcpClient* writer, WriterState* state,
              double seconds, Tracer* tracer, Outcome* segment) {
  const size_t n = tenants.size();
  const std::vector<size_t> read_order = Shuffled(n, config.seed);
  const std::vector<size_t> write_order =
      Shuffled(n, config.seed ^ 0x9e3779b97f4a7c15ULL);
  Outcome read_out;
  Outcome& write_out = *segment;
  Tracer read_trace(tracer->enabled()), write_trace(tracer->enabled());

  auto query = [&](TcpClient* client, const Tenant& tenant, bool marked,
                   bool either, uint64_t request, size_t window, Tracer* t,
                   Outcome* o) {
    std::string line;
    const Clock::time_point t0 = Clock::now();
    const bool sent = client->RoundTrip(QueryLine(*tenant.item), &line);
    const Clock::time_point t1 = Clock::now();
    o->query_us.Add(window, UsBetween(t0, t1));
    Json json;
    const bool ok = sent && ParseOk(line, &json);
    // The reader cannot tell which marker state its pinned version had.
    const bool good =
        ok && (either ? WireMatches(json, *tenant.plain) ||
                            (tenant.marked != nullptr &&
                             WireMatches(json, *tenant.marked))
                      : WireMatches(json, marked ? *tenant.marked
                                                 : *tenant.plain));
    o->Check(good, tenant.item->id);
    if (t->enabled()) {
      const int root = t->Add("tcp.query", ToNs(t0), ToNs(t1), -1, request);
      AddWireSpan(Number(&json, "latency_ms"), t, root, request, ToNs(t1));
    }
  };

  const Clock::time_point start = Clock::now();
  std::thread read_thread([&] {
    read_out.ops = RunPasses(start, n, seconds, &read_out.windows,
                             [&](size_t i, uint64_t request, size_t window) {
      query(reader, tenants[read_order[i]], false, true, request, window,
            &read_trace, &read_out);
    });
  });
  write_out.ops = RunPasses(
      start, n, seconds, &write_out.windows,
      [&](size_t i, uint64_t request, size_t window) {
        const size_t index = write_order[i];
        const Tenant& tenant = tenants[index];
        if (++state->op % kMutateEvery != 0 || tenant.marked == nullptr) {
          query(writer, tenant, state->marked[index], false, request, window,
                &write_trace, &write_out);
          return;
        }
        const bool assert_phase = !state->marked[index];
        std::string line;
        const Clock::time_point t0 = Clock::now();
        const bool sent =
            writer->RoundTrip(MutationLine(*tenant.item, assert_phase), &line);
        const Clock::time_point t1 = Clock::now();
        write_out.mutation_us.Add(window, UsBetween(t0, t1));
        Json json;
        const uint64_t version =
            sent && ParseOk(line, &json)
                ? static_cast<uint64_t>(Number(&json, "version"))
                : 0;
        write_out.Check(version > 0, "mutate " + tenant.item->id);
        if (version > 0) {
          state->marked[index] = assert_phase;
          state->last_kb = tenant.item->id;
          state->last_version = version;
        }
        write_trace.Add("tcp.mutate", ToNs(t0), ToNs(t1), -1, request);
      });
  read_thread.join();
  if (state->last_version > 0) {
    std::string line;
    Json json;
    const bool waited =
        writer->RoundTrip("{\"op\":\"WAIT\",\"kb\":\"" +
                              JsonEscape(state->last_kb) +
                              "\",\"min_version\":" +
                              std::to_string(state->last_version) + "}",
                          &line) &&
        ParseOk(line, &json);
    write_out.Check(waited, "WAIT " + state->last_kb);
  }
  write_out.span_s = SecondsSince(start);
  write_out.Combine(read_out);
  tracer->Append(read_trace);
  tracer->Append(write_trace);
}

// The traced run's shadow: the writer's schedule against an in-process
// KbService configured like rwld (plus a WAL in the state directory),
// through ParseRequest and the response serializers rwld uses.  Returns
// the ops run; *query_us gets each query's parse + service + serialize
// time, the in-process part of a TCP query.
uint64_t RunShadow(const Config& config, const std::vector<Tenant>& tenants,
                   double seconds, Tracer* tracer, Layers* layers,
                   std::map<std::string, double>* extra,
                   std::vector<double>* query_us, Outcome* out) {
  const std::string wal_dir = config.state_dir + "/shadow-wal";
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  rwl::service::ServiceOptions options = BenchServiceOptions();
  options.wal.dir = wal_dir;
  uint64_t ops = 0;
  {
    KbService service(options);
    rwl::service::SessionState session;
    for (const Tenant& tenant : tenants) {
      out->Check(service
                     .Load(tenant.item->id, tenant.item->kb,
                           Declares(*tenant.item, Variant::kMixed))
                     .ok,
                 "shadow LOAD " + tenant.item->id);
      out->Check(Matches(service.Query(tenant.item->id, tenant.item->query)
                             .answer,
                         *tenant.plain),
                 "shadow " + tenant.item->id);
    }
    const rwl::service::WalStats wal_before = service.wal()->stats();
    std::vector<bool> marked(tenants.size(), false);
    const std::vector<size_t> order =
        Shuffled(tenants.size(), config.seed ^ 0x9e3779b97f4a7c15ULL);
    uint64_t op_count = 0, mutations = 0;
    auto timed = [&](const char* span, const char* metric, uint64_t request,
                     int parent, auto&& call) {
      const int id = tracer->Open(span, request, parent);
      call();
      tracer->Close(id);
      layers->Sample(metric, tracer->DurationUs(id));
    };
    ops = RunPasses(
        Clock::now(), tenants.size(), seconds, nullptr,
        [&](size_t i, uint64_t r, size_t) {
          const size_t index = order[i];
          const Tenant& tenant = tenants[index];
          const bool mutate =
              ++op_count % kMutateEvery == 0 && tenant.marked != nullptr;
          const std::string line =
              mutate ? MutationLine(*tenant.item, !marked[index])
                     : QueryLine(*tenant.item);
          const uint64_t request = r + (uint64_t{1} << 40);
          const int root = tracer->Open("op", request);
          const Clock::time_point t0 = Clock::now();
          rwl::service::Request parsed;
          std::string error, response;
          timed("protocol.parse_request", "protocol.parse_request_us",
                request, root,
                [&] { rwl::service::ParseRequest(line, &parsed, &error); });
          if (!mutate) {
            parsed.options.min_version = std::max(
                parsed.options.min_version, session.AckedVersion(parsed.kb));
            const int call = tracer->Open("service.query", request, root);
            const Clock::time_point q0 = Clock::now();
            KbService::QueryResult result =
                service.Query(parsed.kb, parsed.query, parsed.options);
            const double us = UsBetween(q0, Clock::now());
            tracer->Close(call);
            layers->AddAnswer(result, us, tracer, call, request,
                              tracer->spans()[call].end_ns);
            timed("protocol.serialize", "protocol.serialize_us", request,
                  root, [&] {
                    response = rwl::service::QueryResponse(parsed.id, result);
                  });
            query_us->push_back(UsBetween(t0, Clock::now()));
            out->Check(result.ok &&
                           Matches(result.answer, marked[index]
                                                      ? *tenant.marked
                                                      : *tenant.plain),
                       "shadow " + tenant.item->id);
          } else {
            KbService::MutationResult result;
            timed("catalog.mutate", "catalog.mutate_us", request, root, [&] {
              result = parsed.op == rwl::service::Request::Op::kAssert
                           ? service.Assert(parsed.kb, parsed.text)
                           : service.Retract(parsed.kb, parsed.text);
            });
            timed("protocol.serialize", "protocol.serialize_us", request,
                  root, [&] {
                    response = rwl::service::MutationResponse(parsed.id,
                                                              parsed.kb, result);
                  });
            out->Check(result.ok, "shadow mutate " + tenant.item->id);
            if (result.ok) {
              session.RecordAck(parsed.kb, result.version);
              marked[index] = !marked[index];
              ++mutations;
              timed("catalog.publish_lag", "catalog.publish_lag_us", request,
                    root, [&] {
                      service.WaitForVersion(parsed.kb, result.version,
                                             30000.0);
                    });
            }
          }
          tracer->Close(root);
        });
    const rwl::service::WalStats wal = service.wal()->stats();
    // Lifetime counters of the final heads: each mutation installs a head
    // with fresh counters, so deltas across the run would not add up.
    layers->AddCacheStats({}, HeadCacheStats(service));
    (*extra)["wal.fsync_p50_us"] = wal.fsync_p50_us;
    (*extra)["wal.fsyncs_per_mutation"] =
        mutations == 0 ? 0.0
                       : static_cast<double>(wal.fsyncs - wal_before.fsyncs) /
                             static_cast<double>(mutations);
  }
  std::filesystem::remove_all(wal_dir);
  return ops;
}

}  // namespace

Outcome RunMixedTcp(const Config& config, const std::vector<Item>& items,
                    const References& refs) {
  Outcome out;
  if (config.rwld.empty()) {
    std::fprintf(stderr, "rwbench: mixed_tcp needs --rwld\n");
    return out;
  }
  std::vector<Tenant> tenants;
  for (const Item& item : items) {
    if (!item.In("mixed_tcp")) continue;
    Tenant tenant;
    tenant.item = &item;
    tenant.plain = &RequireReference(refs, item, Variant::kMixed);
    if (!item.marker.empty()) {
      tenant.marked = &RequireReference(refs, item, Variant::kMixedMarked);
    }
    tenants.push_back(tenant);
  }

  DaemonProcess daemon;
  std::unique_ptr<TcpClient> control;
  int port = 0;
  WriterState state;
  // One set-up, timed from process start for the first: a fresh rwld (the
  // previous one stopped first, untimed), every tenant loaded and answered
  // once over the wire.
  auto setup = [&](bool first) {
    if (control != nullptr) {
      out.peak_rss_mib = std::max(out.peak_rss_mib, PeakRssMib(daemon.pid()));
      daemon.Shutdown(std::move(control));
    }
    const Clock::time_point start =
        first ? config.process_start : Clock::now();
    port = FreePort();
    const std::vector<std::string> args = {"--port", std::to_string(port),
                                           "--threads", "1", "--nmax", "32"};
    std::string error;
    control = daemon.Start(config.rwld, args, config.server_cpus, port,
                           config.state_dir + "/rwld.log", &error);
    if (control == nullptr) {
      std::fprintf(stderr, "rwbench: %s\n", error.c_str());
      return false;
    }
    for (const Tenant& tenant : tenants) {
      std::string line;
      Json json;
      out.Check(control->RoundTrip(LoadLine(*tenant.item), &line) &&
                    ParseOk(line, &json),
                "LOAD " + tenant.item->id + ": " + line);
    }
    for (const Tenant& tenant : tenants) {
      std::string line;
      Json json;
      out.Check(control->RoundTrip(QueryLine(*tenant.item), &line) &&
                    ParseOk(line, &json) && WireMatches(json, *tenant.plain),
                "QUERY " + tenant.item->id + ": " + line);
    }
    out.setup_s.push_back(SecondsSince(start));
    return true;
  };
  // A timed segment on the current daemon, from fresh connections and an
  // unmarked writer state (a fresh daemon holds no markers).
  auto segment = [&](double seconds, Tracer* tracer, Outcome* result) {
    std::unique_ptr<TcpClient> reader = TcpClient::Connect(port);
    std::unique_ptr<TcpClient> writer = TcpClient::Connect(port);
    if (reader == nullptr || writer == nullptr) {
      std::fprintf(stderr, "rwbench: cannot connect to rwld\n");
      return false;
    }
    RunPhase(config, tenants, reader.get(), writer.get(), &state, seconds,
             tracer, result);
    return true;
  };

  Tracer tracer(true), untraced(false);
  Layers layers;
  std::map<std::string, double> extra;
  uint64_t shadow_ops = 0;
  if (!setup(true)) return Outcome{};
  if (!config.trace) {
    // One segment per set-up, each on a freshly set-up daemon, so the
    // set-ups sample the host at times spread over the run.
    const double seconds = config.seconds / config.setup_reps;
    for (int rep = 0; rep < config.setup_reps; ++rep) {
      if (rep > 0 && !setup(false)) return Outcome{};
      state = WriterState{};
      state.marked.assign(tenants.size(), false);
      Outcome result;
      if (!segment(seconds, &untraced, &result)) return Outcome{};
      out.Absorb(result, static_cast<size_t>(seconds));
    }
  } else {
    for (int rep = 1; rep < config.setup_reps; ++rep) {
      if (!setup(false)) return Outcome{};
    }
    state.marked.assign(tenants.size(), false);
    Outcome base, traced;
    if (!segment(config.seconds / 2, &untraced, &base)) return Outcome{};
    const DaemonStats before = ReadStats(control.get());
    if (!segment(config.seconds / 2, &tracer, &traced)) return Outcome{};
    const DaemonStats after = ReadStats(control.get());
    extra["trace.overhead_frac"] =
        (static_cast<double>(base.ops) / base.span_s) /
            (static_cast<double>(traced.ops) / traced.span_s) -
        1.0;
    const double mutations =
        std::max<double>(1.0, traced.mutation_us.size());
    extra["service.rejected"] = after.rejected - before.rejected;
    extra["catalog.minted"] = (after.minted - before.minted) / mutations;
    extra["catalog.coalesced"] =
        (after.coalesced - before.coalesced) / mutations;
    extra["catalog.patched_frac"] =
        after.minted > before.minted
            ? (after.patched - before.patched) / (after.minted - before.minted)
            : 0.0;
    std::vector<double> shadow_query_us;
    shadow_ops = RunShadow(config, tenants, config.seconds / 4, &tracer,
                           &layers, &extra, &shadow_query_us, &out);
    extra["rwld.transport_us"] = Percentile(traced.query_us.Pooled(), 0.5) -
                                 Percentile(shadow_query_us, 0.5);
    out.Absorb(base, 0);
    out.Absorb(traced, 0);
    out.ops = traced.ops;
    out.span_s = traced.span_s;
  }
  out.peak_rss_mib = std::max(out.peak_rss_mib, PeakRssMib(daemon.pid()));
  out.env["server_cpus"] = CpusAllowed(daemon.pid());
  out.env["client_cpus"] = CpusAllowed(0);
  out.env["wal"] = "off";
  daemon.Shutdown(std::move(control));
  if (config.trace) FinishTrace(config, layers, tracer, shadow_ops, extra, &out);
  return out;
}

}  // namespace rwbench
