// rwld — the random-worlds knowledge-base daemon.
//
// Serves a KbCatalog of named, versioned KBs over a newline-delimited JSON
// protocol (src/service/protocol.h): LOAD / ASSERT / RETRACT / QUERY /
// BATCH / STATS / SHUTDOWN, one request per line, one response per line.
//
// Concurrency model: one in-flight request per connection, answered in
// order (open more connections for parallelism — rwlload opens one per
// client thread).  Mutations ack once their WAL order is fixed; the
// successor snapshot is minted on the catalog's background maintenance
// worker and published atomically.  Queries pin the KB version at
// admission and never see a later version than their admission point
// (snapshot isolation).  A QUERY whose answer the pinned head has
// memoized is answered on the connection thread
// (KbService::AnswerMemoized) with no scheduler hop; every other query,
// and every BATCH, runs on the shared scheduler, so a slow query on one
// connection never blocks another connection's traffic.  (In-process
// KbService::Query still hops for hits too; see service.h.)  Each
// connection floors its queries' min_version at its own highest mutation
// ack, so clients read their own writes even mid-publication (see README
// "Running as a service").
//
// Durability & replication (README "Durability & replication"):
//   --wal-dir DIR   journal every mutation (fsync before ack) and recover
//                   the catalog from DIR on boot (newest snapshots + WAL
//                   replay, torn final records dropped)
//   --replica-of P  run as a read-only log-shipping replica of the rwld
//                   at 127.0.0.1:P — tails its TAIL feed, applies records
//                   through the same catalog path, serves QUERY/BATCH
//                   (min_version is interpreted as a PRIMARY version and
//                   mapped through the applied version vector, so
//                   read-your-writes survives the primary->replica hop)
//
// Usage:
//   rwld --port P [--threads N] [--queue-depth D] [--nmax N]
//   rwld --stdio  [--threads N] ...
//
//   --port P        listen on 127.0.0.1:P (TCP, one thread per connection)
//   --stdio         serve a single session on stdin/stdout (transcripts,
//                   CI smoke tests:  rwld --stdio < script.ndjson)
//   --threads N     scheduler worker threads (default: hardware threads)
//   --queue-depth D per-tenant admission cap (default 256)
//   --nmax N        largest sweep domain size (default 48, as rwlq)
//   --plan MODE     default plan mode: fidelity | cost (default fidelity)
//   --wal-dir DIR   write-ahead log + snapshots + crash recovery
//   --snapshot-every N  journaled mutations per KB between snapshots
//   --replica-of P  read-only replica of the primary at 127.0.0.1:P
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/service/protocol.h"
#include "src/service/replica.h"
#include "src/service/service.h"
#include "src/service/wal.h"

namespace {

using rwl::service::KbService;
using rwl::service::Request;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--port P | --stdio) [--threads N]\n"
               "          [--queue-depth D] [--nmax N] [--plan fidelity|cost]\n"
               "          [--wal-dir DIR] [--snapshot-every N]\n"
               "          [--replica-of PORT]\n",
               argv0);
  return 2;
}

// How long a replica QUERY waits for the primary version named by
// min_version to be applied before reporting lag.
constexpr double kReplicaWaitMs = 30000.0;

// Largest accepted request line.  On the TCP path this bounds
// per-connection buffering (the connection is dropped before `buffer`
// exceeds it); on the local --stdio pipe std::getline has already read
// the line, so the cap only rejects it post-hoc — stdio serves the
// operator's own transcripts, not untrusted peers.
constexpr size_t kMaxLineBytes = 8u << 20;

struct Daemon {
  rwl::service::ReplicationHub hub;
  KbService service;
  std::atomic<bool> shutdown{false};
  // Set in replica mode: the tailer thread applies the primary's feed
  // here, and QUERY/BATCH route their min_version through it.
  std::unique_ptr<rwl::service::ReplicaApplier> replica;

  explicit Daemon(rwl::service::ServiceOptions options)
      : service((options.replication = &hub, options)) {}

  // Handles one request line; returns the response line (no newline).
  // `session` carries the connection's read-your-writes state: mutation
  // acks are recorded there, and queries wait for the connection's own
  // acked version before pinning a snapshot.  A TAIL request sets
  // *start_tail: the caller must switch the connection into streaming
  // after sending the returned ack.
  std::string Handle(const std::string& line,
                     rwl::service::SessionState* session, bool* start_tail) {
    *start_tail = false;
    Request request;
    std::string error;
    if (!rwl::service::ParseRequest(line, &request, &error)) {
      // ParseRequest fills the id before validating the rest, so a
      // validation failure still correlates with the client's request;
      // id 0 only when the JSON itself was unparseable.
      return rwl::service::ErrorResponse(request.id, error);
    }
    if (replica != nullptr) {
      switch (request.op) {
        case Request::Op::kLoad:
        case Request::Op::kAssert:
        case Request::Op::kRetract:
          return rwl::service::ErrorResponse(
              request.id, "read-only replica: mutate the primary");
        case Request::Op::kQuery:
        case Request::Op::kBatch: {
          // The version-vector handoff: the client's min_version names a
          // PRIMARY version (its own last primary ack).  Wait until the
          // feed has applied it, then pin via the mapped local version.
          if (request.options.min_version > 0) {
            uint64_t local_version = 0;
            if (!replica->WaitForPrimaryVersion(request.kb,
                                                request.options.min_version,
                                                kReplicaWaitMs,
                                                &local_version)) {
              return rwl::service::ErrorResponse(
                  request.id,
                  "replica lag: primary version not yet applied");
            }
            request.options.min_version = local_version;
          }
          break;
        }
        case Request::Op::kWait: {
          // Pure replication-lag probe: block until the feed has applied
          // the named PRIMARY version, answer with the mapped local
          // version, run no query.
          uint64_t local_version = 0;
          if (!replica->WaitForPrimaryVersion(request.kb,
                                              request.options.min_version,
                                              kReplicaWaitMs,
                                              &local_version)) {
            return rwl::service::ErrorResponse(
                request.id, "replica lag: primary version not yet applied");
          }
          return rwl::service::WaitResponse(request.id, request.kb,
                                            local_version);
        }
        default:
          break;
      }
    }
    auto ack = [&](const KbService::MutationResult& result) {
      if (result.ok) session->RecordAck(request.kb, result.version);
      return rwl::service::MutationResponse(request.id, request.kb, result);
    };
    switch (request.op) {
      case Request::Op::kLoad:
        return ack(service.Load(request.kb, request.text, request.declare));
      case Request::Op::kAssert:
        return ack(service.Assert(request.kb, request.text));
      case Request::Op::kRetract:
        return ack(service.Retract(request.kb, request.text));
      case Request::Op::kQuery: {
        request.options.min_version = std::max(
            request.options.min_version, session->AckedVersion(request.kb));
        // A memo hit is answered here, on the connection thread; only a
        // miss takes the scheduler hop.
        KbService::QueryResult result;
        if (!service.AnswerMemoized(request.kb, request.query, request.options,
                                    &result)) {
          result = service.Query(request.kb, request.query, request.options);
        }
        return rwl::service::QueryResponse(request.id, result);
      }
      case Request::Op::kBatch:
        request.options.min_version = std::max(
            request.options.min_version, session->AckedVersion(request.kb));
        return rwl::service::BatchResponse(
            request.id,
            service.Batch(request.kb, request.queries, request.options));
      case Request::Op::kStats:
        return rwl::service::StatsResponse(request.id, service,
                                           replica.get());
      case Request::Op::kShutdown:
        shutdown.store(true, std::memory_order_relaxed);
        return rwl::service::ShutdownResponse(request.id);
      case Request::Op::kTail:
        *start_tail = true;
        return rwl::service::TailAckResponse(request.id);
      case Request::Op::kWait:
        // Primary: versions are "held" once published (acked versions
        // reach publication via the maintenance worker; 30s bounds a
        // wedged queue).
        if (!service.WaitForVersion(request.kb, request.options.min_version,
                                    kReplicaWaitMs)) {
          return rwl::service::ErrorResponse(
              request.id, "timed out waiting for version");
        }
        return rwl::service::WaitResponse(request.id, request.kb,
                                          request.options.min_version);
    }
    return rwl::service::ErrorResponse(request.id, "unreachable");
  }

  // The replication feed: one SNAPSHOT bootstrap per live KB (serialized
  // from the staged tails AFTER subscribing, so a racing mutation is
  // either inside a bootstrap snapshot or in the stream — the replica
  // dedups by version), then live records until `emit` fails or the
  // daemon shuts down.
  void StreamTail(const std::function<bool(const std::string&)>& emit) {
    std::shared_ptr<rwl::service::ReplicationSubscription> sub =
        hub.Subscribe();
    bool alive = true;
    for (const auto& head : service.Heads()) {
      rwl::service::KbCatalog::StagedState staged =
          service.catalog()->Staged(head->name);
      if (!staged.ok) continue;
      if (!emit(rwl::service::EncodeWalRecord(rwl::service::MakeSnapshotRecord(
              head->name, staged.version, staged.kb)))) {
        alive = false;
        break;
      }
    }
    std::string line;
    while (alive && !shutdown.load(std::memory_order_relaxed) &&
           !sub->closed()) {
      if (sub->Next(&line, 200.0)) alive = emit(line);
    }
    hub.Unsubscribe(sub);
  }
};

int ServeStdio(Daemon* daemon) {
  // std::getline, not a fixed buffer: a LOAD payload can exceed any fixed
  // line size, and a truncated read would desync the response stream.
  rwl::service::SessionState session;
  std::string line;
  while (!daemon->shutdown.load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.size() > kMaxLineBytes) {
      std::printf("%s\n",
                  rwl::service::ErrorResponse(0, "request line too large")
                      .c_str());
      std::fflush(stdout);
      continue;
    }
    bool start_tail = false;
    std::string response = daemon->Handle(line, &session, &start_tail);
    std::printf("%s\n", response.c_str());
    std::fflush(stdout);
    if (start_tail) {
      daemon->StreamTail([](const std::string& record) {
        std::printf("%s\n", record.c_str());
        return std::fflush(stdout) == 0;
      });
      return 0;  // the stream is the rest of the session
    }
  }
  return 0;
}

// One live connection thread, registered with the daemon so shutdown can
// unblock its recv() and the accept loop can reap it once finished.
struct Connection {
  std::thread thread;
  int fd = -1;
  std::atomic<bool> finished{false};
};

// Writes one whole line (newline appended).  MSG_NOSIGNAL: a peer that
// closed mid-response must surface as a send error on this connection,
// not SIGPIPE-kill the daemon.
bool SendLine(int fd, std::string line) {
  line += '\n';
  size_t sent = 0;
  while (sent < line.size()) {
    ssize_t w = ::send(fd, line.data() + sent, line.size() - sent,
                       MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

void ServeConnection(Daemon* daemon, Connection* connection) {
  const int fd = connection->fd;
  rwl::service::SessionState session;
  std::string buffer;
  char chunk[1 << 14];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    if (buffer.size() > kMaxLineBytes) {
      // No newline within the cap: drop the connection rather than
      // buffer an unbounded line.
      break;
    }
    size_t start = 0;
    for (;;) {
      size_t newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      bool start_tail = false;
      std::string response = daemon->Handle(line, &session, &start_tail);
      bool write_failed = !SendLine(fd, std::move(response));
      if (!write_failed && start_tail) {
        // The connection is now a replication feed; it ends when the
        // subscriber drops, the daemon shuts down, or the send fails.
        daemon->StreamTail(
            [fd](const std::string& record) { return SendLine(fd, record); });
        write_failed = true;  // fall through to close
      }
      if (write_failed || daemon->shutdown.load(std::memory_order_relaxed)) {
        ::close(fd);
        connection->finished.store(true, std::memory_order_release);
        return;
      }
    }
    buffer.erase(0, start);
  }
  ::close(fd);
  connection->finished.store(true, std::memory_order_release);
}

// ---- replica tailer ----

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Tails the primary's TAIL feed and applies every record; reconnects
// (and implicitly re-bootstraps — the feed restarts with SNAPSHOT
// records, deduplicated by version) on any error until shutdown.
void TailPrimary(Daemon* daemon, int primary_port) {
  while (!daemon->shutdown.load(std::memory_order_relaxed)) {
    int fd = ConnectLoopback(primary_port);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      continue;
    }
    // recv timeout so shutdown is noticed promptly on an idle feed.
    timeval timeout{0, 200000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (!SendLine(fd, "{\"op\":\"TAIL\"}")) {
      ::close(fd);
      continue;
    }
    std::string buffer;
    char chunk[1 << 14];
    bool saw_ack = false;
    bool feed_ok = true;
    while (feed_ok && !daemon->shutdown.load(std::memory_order_relaxed)) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) break;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        break;
      }
      buffer.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (;;) {
        size_t newline = buffer.find('\n', start);
        if (newline == std::string::npos) break;
        std::string line = buffer.substr(start, newline - start);
        start = newline + 1;
        if (line.empty()) continue;
        if (!saw_ack) {
          saw_ack = true;  // {"id":0,"ok":true,"tail":true}
          continue;
        }
        std::string error;
        if (!daemon->replica->ApplyLine(line, &error)) {
          std::fprintf(stderr, "rwld: replica apply failed: %s\n",
                       error.c_str());
          feed_ok = false;  // drop the feed, reconnect, re-bootstrap
          break;
        }
      }
      buffer.erase(0, start);
    }
    ::close(fd);
    if (!daemon->shutdown.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  }
}

int ServeTcp(Daemon* daemon, int port) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("rwld: socket");
    return 1;
  }
  int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    std::perror("rwld: bind");
    ::close(listen_fd);
    return 1;
  }
  if (::listen(listen_fd, 64) < 0) {
    std::perror("rwld: listen");
    ::close(listen_fd);
    return 1;
  }
  std::fprintf(stderr, "rwld: listening on 127.0.0.1:%d\n", port);

  std::vector<std::unique_ptr<Connection>> connections;
  auto reap_finished = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!daemon->shutdown.load(std::memory_order_relaxed)) {
    // Poll with a timeout so a SHUTDOWN request (handled on a connection
    // thread) stops the accept loop promptly; each tick also reaps
    // finished connection threads so a long-lived daemon stays bounded.
    fd_set read_fds;
    FD_ZERO(&read_fds);
    FD_SET(listen_fd, &read_fds);
    timeval timeout{0, 200000};  // 200 ms
    int ready = ::select(listen_fd + 1, &read_fds, nullptr, nullptr,
                         &timeout);
    reap_finished();
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connection->thread = std::thread(ServeConnection, daemon, raw);
    connections.push_back(std::move(connection));
  }
  ::close(listen_fd);
  // Unblock every idle connection's recv() so shutdown never waits on a
  // client that simply stays connected.
  for (auto& connection : connections) {
    if (!connection->finished.load(std::memory_order_acquire)) {
      ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
  for (auto& connection : connections) connection->thread.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  bool stdio = false;
  int replica_of = 0;
  rwl::service::ServiceOptions options;
  options.inference.tolerances =
      rwl::semantics::ToleranceVector::Uniform(0.04);
  int nmax = 48;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      port = std::atoi(v);
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.scheduler.num_threads = std::atoi(v);
    } else if (arg == "--queue-depth") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.scheduler.max_queue_depth =
          static_cast<size_t>(std::atoll(v));
    } else if (arg == "--nmax") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      nmax = std::atoi(v);
    } else if (arg == "--plan") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      std::string mode = v;
      if (mode == "cost") {
        options.inference.plan_mode = rwl::PlanMode::kMinCost;
      } else if (mode != "fidelity") {
        return Usage(argv[0]);
      }
    } else if (arg == "--wal-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.wal.dir = v;
    } else if (arg == "--snapshot-every") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.wal.snapshot_every = std::atoi(v);
    } else if (arg == "--replica-of") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      replica_of = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (stdio == (port > 0)) return Usage(argv[0]);  // exactly one mode
  if (replica_of > 0 && !options.wal.dir.empty()) {
    // A replica's durability is the primary's WAL; it re-bootstraps over
    // TAIL on every (re)start instead of journaling its own copy.
    std::fprintf(stderr, "rwld: --replica-of and --wal-dir are exclusive\n");
    return 2;
  }

  // The rwlq sweep schedule, so a service answer matches the CLI's.
  options.inference.limit.domain_sizes.clear();
  for (int n = 8; n <= nmax; n = n < 16 ? n + 8 : n * 2) {
    options.inference.limit.domain_sizes.push_back(n);
  }
  if (options.inference.limit.domain_sizes.empty() ||
      options.inference.limit.domain_sizes.back() != nmax) {
    options.inference.limit.domain_sizes.push_back(nmax);
  }

  Daemon daemon(options);
  if (!options.wal.dir.empty()) {
    std::vector<std::string> warnings;
    std::string error;
    if (!daemon.service.Recover(&warnings, &error)) {
      std::fprintf(stderr, "rwld: recovery failed: %s\n", error.c_str());
      return 1;
    }
    for (const std::string& warning : warnings) {
      std::fprintf(stderr, "rwld: recovery warning: %s\n", warning.c_str());
    }
    std::fprintf(stderr, "rwld: recovered %zu kb(s) from %s\n",
                 daemon.service.Heads().size(), options.wal.dir.c_str());
  }
  std::thread tailer;
  if (replica_of > 0) {
    daemon.replica = std::make_unique<rwl::service::ReplicaApplier>(
        daemon.service.catalog());
    std::fprintf(stderr, "rwld: replica of 127.0.0.1:%d\n", replica_of);
    tailer = std::thread(TailPrimary, &daemon, replica_of);
  }
  int exit_code = stdio ? ServeStdio(&daemon) : ServeTcp(&daemon, port);
  daemon.shutdown.store(true, std::memory_order_relaxed);
  if (tailer.joinable()) tailer.join();
  return exit_code;
}
