#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace dive::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  int sum = 0;  // no synchronization needed: everything runs on the caller
  pool.parallel_for(0, 100, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round)
    pool.parallel_for(0, 50, [&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 20 * 50);
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoops) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](int) { count.fetch_add(1); });
  pool.parallel_for(9, 3, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](int i) {
                                   if (i == 13)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, DisjointWritesNeedNoSynchronization) {
  ThreadPool pool(4);
  std::vector<int> out(1000, -1);
  pool.parallel_for(0, 1000, [&](int i) {
    out[static_cast<std::size_t>(i)] = i * i;
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ThreadPool, ResolveThreadCountPolicy) {
  EXPECT_EQ(ThreadPool::resolve_thread_count(3), 3);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1);

  ASSERT_EQ(setenv("DIVE_THREADS", "2", 1), 0);
  EXPECT_EQ(ThreadPool::resolve_thread_count(0), 2);
  // An explicit request still beats the environment.
  EXPECT_EQ(ThreadPool::resolve_thread_count(5), 5);

  ASSERT_EQ(setenv("DIVE_THREADS", "garbage", 1), 0);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);

  ASSERT_EQ(unsetenv("DIVE_THREADS"), 0);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);
}

// Only resolves counts: constructing a pool from an unbounded count would
// spawn that many OS threads.
TEST(ThreadPool, ResolveThreadCountParsesStrictlyAndClamps) {
  ASSERT_EQ(unsetenv("DIVE_THREADS"), 0);
  const int hardware = ThreadPool::resolve_thread_count(0);
  EXPECT_GE(hardware, 1);
  EXPECT_LE(hardware, ThreadPool::kMaxThreads);

  // Not a whole positive integer: fall back to the hardware count.
  for (const char* bad : {"abc", "-3", "0", "4abc", ""}) {
    ASSERT_EQ(setenv("DIVE_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::resolve_thread_count(0), hardware) << bad;
  }
  // Too large (including past INT_MAX): clamped to the cap.
  for (const char* big : {"100000", "99999999999"}) {
    ASSERT_EQ(setenv("DIVE_THREADS", big, 1), 0);
    EXPECT_EQ(ThreadPool::resolve_thread_count(0), ThreadPool::kMaxThreads)
        << big;
  }
  ASSERT_EQ(unsetenv("DIVE_THREADS"), 0);

  EXPECT_EQ(ThreadPool::resolve_thread_count(100000), ThreadPool::kMaxThreads);
  EXPECT_EQ(ThreadPool::resolve_thread_count(ThreadPool::kMaxThreads),
            ThreadPool::kMaxThreads);
}

}  // namespace
}  // namespace dive::util
