#include "util/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace dive::util {

int ThreadPool::resolve_thread_count(int requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  if (const char* env = std::getenv("DIVE_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && v > 0)
      return static_cast<int>(std::min<long>(v, kMaxThreads));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(static_cast<int>(hw), kMaxThreads) : 1;
}

ThreadPool::ThreadPool(int threads) {
  const int n = resolve_thread_count(threads);
  workers_.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (int i = 0; i < n - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(const std::function<void(int)>& fn) {
  for (;;) {
    if (failed_.load(std::memory_order_relaxed)) return;
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end_) return;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    const std::function<void(int)>* fn = job_;
    lock.unlock();
    drain(*fn);
    lock.lock();
    if (--acks_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& fn) {
  if (end <= begin) return;
  // Serial fast path: no workers, or nothing worth fanning out.
  if (workers_.empty() || end - begin == 1) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }

  std::unique_lock lock(mutex_);
  job_ = &fn;
  next_.store(begin, std::memory_order_relaxed);
  end_ = end;
  acks_ = static_cast<int>(workers_.size());
  error_ = nullptr;
  failed_.store(false, std::memory_order_relaxed);
  ++epoch_;
  lock.unlock();
  start_cv_.notify_all();

  drain(fn);

  lock.lock();
  // Every worker must acknowledge this epoch before the caller returns,
  // otherwise a late-waking worker could touch a dead `fn`.
  done_cv_.wait(lock, [&] { return acks_ == 0; });
  job_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace dive::util
