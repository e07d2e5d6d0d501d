#include "src/service/scheduler.h"

#include <utility>

namespace rwl::service {

QueryScheduler::QueryScheduler(const SchedulerOptions& options)
    : options_(options), pool_(options.num_threads) {}

QueryScheduler::~QueryScheduler() = default;  // pool_ drains, then joins

bool QueryScheduler::Submit(const std::string& tenant,
                            std::function<void()> job,
                            std::function<void()> reply) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::deque<Job>& queue = queues_[tenant];
    if (queue.size() >= options_.max_queue_depth) {
      ++stats_.rejected;
      if (queue.empty()) queues_.erase(tenant);
      return false;
    }
    queue.push_back(Job{std::move(job), std::move(reply)});
    ++stats_.submitted;
    ++stats_.queued;
  }
  // One pool ticket per queued job: each ticket serves whichever tenant
  // the round-robin cursor selects, so queue order and service order can
  // differ per tenant flood — that is the fairness.
  pool_.Submit([this] { RunNext(); });
  return true;
}

void QueryScheduler::RunNext() {
  Job job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queues_.empty()) return;  // job count == ticket count; defensive
    // Round-robin: first tenant strictly after the cursor, wrapping.
    auto it = queues_.upper_bound(cursor_);
    if (it == queues_.end()) it = queues_.begin();
    cursor_ = it->first;
    job = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) queues_.erase(it);
    --stats_.queued;
    ++stats_.running;
  }
  job.run();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --stats_.running;
    ++stats_.completed;
  }
  if (job.reply) job.reply();
}

QueryScheduler::Stats QueryScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.threads = pool_.num_threads();
  return stats;
}

}  // namespace rwl::service
