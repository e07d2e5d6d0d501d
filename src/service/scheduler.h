// QueryScheduler: fair multi-tenant admission and dispatch for the rwld
// service, on top of util::WorkerPool.
//
// Each tenant (a named KB) owns a FIFO queue; the pool's workers drain the
// queues round-robin, one job per turn, so a tenant flooding the service
// delays its own queries, not its neighbours'.  Admission control is a
// per-tenant queue-depth cap: a submit against a full queue is rejected
// immediately (the protocol layer turns that into an "overloaded" error)
// instead of growing an unbounded backlog.
//
// The scheduler runs opaque jobs; per-query deadlines and work budgets are
// carried inside the job's InferenceOptions and enforced by the planner
// (core/planner.h) — the scheduler's only timing role is to start jobs
// fairly.
#ifndef RWL_SERVICE_SCHEDULER_H_
#define RWL_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/util/thread_pool.h"

namespace rwl::service {

struct SchedulerOptions {
  // Worker threads (0 = one per hardware thread).
  int num_threads = 0;
  // Per-tenant queued-job cap; submits beyond it are rejected.
  size_t max_queue_depth = 256;
};

class QueryScheduler {
 public:
  explicit QueryScheduler(const SchedulerOptions& options = {});
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Enqueues `job` under `tenant`'s queue.  Returns false (job dropped,
  // not run) when the tenant's queue is at max_queue_depth.  `reply`, when
  // given, runs after the job is counted completed: a job that hands its
  // result to a waiter does it there, so a stats() read by that waiter
  // already counts the job.
  bool Submit(const std::string& tenant, std::function<void()> job,
              std::function<void()> reply = nullptr);

  struct Stats {
    uint64_t submitted = 0;
    uint64_t rejected = 0;   // admission-control drops
    uint64_t completed = 0;
    uint64_t queued = 0;     // currently waiting, across tenants
    uint64_t running = 0;    // currently executing
    int threads = 0;
  };
  Stats stats() const;

  int num_threads() const { return pool_.num_threads(); }

 private:
  struct Job {
    std::function<void()> run;
    std::function<void()> reply;  // may be empty
  };

  // Pops the next job in round-robin tenant order (called by pool tasks).
  void RunNext();

  SchedulerOptions options_;
  mutable std::mutex mutex_;
  // Ordered map: the round-robin cursor walks tenant names in a stable
  // order, and empty queues are erased so the map stays small.
  std::map<std::string, std::deque<Job>> queues_;
  std::string cursor_;  // last-served tenant; next turn starts after it
  Stats stats_;
  util::WorkerPool pool_;  // last member: workers stop before state dies
};

}  // namespace rwl::service

#endif  // RWL_SERVICE_SCHEDULER_H_
