#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace magus::util {

namespace {

std::atomic<ThreadPool::WaitHook> g_wait_hook{nullptr};

[[nodiscard]] std::uint64_t wait_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void ThreadPool::set_wait_hook(WaitHook hook) {
  g_wait_hook.store(hook, std::memory_order_relaxed);
}

std::size_t resolve_thread_count(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t total = resolve_thread_count(threads);
  threads_.reserve(total - 1);
  for (std::size_t w = 1; w < total; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock{mutex_};
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::drain(std::size_t worker, const Task& fn, std::size_t count) {
  std::size_t task;
  while ((task = next_task_.fetch_add(1, std::memory_order_relaxed)) < count) {
    try {
      fn(worker, task);
    } catch (...) {
      {
        const std::lock_guard lock{mutex_};
        if (!error_) error_ = std::current_exception();
      }
      // Abandon the remaining tasks; concurrent workers finish their
      // current one and stop.
      next_task_.store(count, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::run(std::size_t count, const Task& fn) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    // Single-threaded pool, or a single task: run inline on the caller
    // (worker 0), no synchronization at all. Waking the workers for one
    // task would only add a round trip.
    for (std::size_t task = 0; task < count; ++task) fn(0, task);
    return;
  }
  {
    const std::lock_guard lock{mutex_};
    job_ = &fn;
    job_count_ = count;
    next_task_.store(0, std::memory_order_relaxed);
    active_ = threads_.size();
    error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  drain(0, fn, count);
  const WaitHook hook = g_wait_hook.load(std::memory_order_relaxed);
  const std::uint64_t join_start_ns = hook ? wait_clock_ns() : 0;
  std::unique_lock lock{mutex_};
  done_cv_.wait(lock, [this] { return active_ == 0; });
  if (hook) hook(WaitKind::kJoin, join_start_ns, wait_clock_ns());
  job_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen_generation = 0;
  while (true) {
    const Task* job = nullptr;
    std::size_t count = 0;
    const WaitHook hook = g_wait_hook.load(std::memory_order_relaxed);
    const std::uint64_t wait_start_ns = hook ? wait_clock_ns() : 0;
    {
      std::unique_lock lock{mutex_};
      start_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      count = job_count_;
    }
    // Reported only when a job arrived: the final stop_ wait is shutdown,
    // not queue wait, and would dwarf every real interval.
    if (hook) hook(WaitKind::kTaskWait, wait_start_ns, wait_clock_ns());
    drain(worker, *job, count);
    {
      const std::lock_guard lock{mutex_};
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace magus::util
