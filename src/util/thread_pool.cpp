#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/env.hpp"
#include "util/log.hpp"

namespace spcd::util {

namespace {

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

std::string summarize(const std::vector<JobErrors::Entry>& errors) {
  std::string out = std::to_string(errors.size()) + " job(s) failed";
  for (const auto& e : errors) {
    out += "\n  ";
    if (!e.context.empty()) {
      out += e.context;
      out += ": ";
    }
    out += e.message;
  }
  return out;
}

}  // namespace

JobErrors::JobErrors(std::vector<Entry> errors)
    : std::runtime_error(summarize(errors)), errors_(std::move(errors)) {}

unsigned configured_jobs() {
  // Unset -> fallback 0 -> hardware concurrency. SPCD_JOBS=0 (a zero-sized
  // pool) or garbage is rejected with a warning instead of silently
  // spawning nothing.
  const auto jobs = env_u64_clamped("SPCD_JOBS", 0, 1, 1024);
  if (jobs != 0) return static_cast<unsigned>(jobs);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads == 0 ? configured_jobs() : threads) {
  if (threads_ <= 1) {
    threads_ = 1;
    return;  // serial pool: submit() runs jobs inline
  }
  workers_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job, std::string context) {
  if (workers_.empty()) {
    job();  // serial path: run in submission order, exceptions propagate
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(QueuedJob{std::move(job), std::move(context)});
    ++unfinished_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return unfinished_ == 0; });
  if (!errors_.empty()) {
    std::vector<JobErrors::Entry> errors = std::move(errors_);
    errors_.clear();
    lock.unlock();
    throw JobErrors(std::move(errors));
  }
}

void ThreadPool::wait_all_noexcept() noexcept {
  try {
    wait();
  } catch (const JobErrors& e) {
    SPCD_LOG_WARN("thread pool: %s", e.what());
  } catch (...) {
    SPCD_LOG_WARN("thread pool: job failed during teardown");
  }
}

std::size_t ThreadPool::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unfinished_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job.fn();
    } catch (...) {
      // Collect every failure (with the submit() context) so wait() can
      // report the whole batch, not just whichever job lost the race.
      std::lock_guard<std::mutex> lock(mu_);
      errors_.push_back(JobErrors::Entry{std::move(job.context),
                                         describe_current_exception(),
                                         std::current_exception()});
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --unfinished_;
    }
    done_cv_.notify_all();
  }
}

}  // namespace spcd::util
