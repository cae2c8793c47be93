#include "common/threadpool.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vs {
namespace {

TEST(ThreadPoolTest, InlineModeRunsImmediately) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  int value = 0;
  pool.Submit([&value] { value = 7; });
  EXPECT_EQ(value, 7);  // inline execution completes before return
}

TEST(ThreadPoolTest, WorkersRunAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(5, 5, [&counter](size_t) { counter.fetch_add(1); });
  pool.ParallelFor(7, 3, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTest, ParallelForInlineMode) {
  ThreadPool pool(0);
  std::vector<int> order;
  pool.ParallelFor(0, 5, [&order](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));  // sequential
}

TEST(ThreadPoolTest, WaitIdleWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SumViaParallelForMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long long> partial(101, 0);
  pool.ParallelFor(1, 101, [&partial](size_t i) {
    partial[i] = static_cast<long long>(i);
  });
  long long total = std::accumulate(partial.begin(), partial.end(), 0LL);
  EXPECT_EQ(total, 5050);
}

TEST(ThreadPoolTest, DefaultThreadsIsSane) {
  const size_t n = ThreadPool::DefaultThreads();
  EXPECT_LT(n, 1024u);
}

TEST(ThreadPoolTest, CompletedCounterMatchesSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.tasks_completed(), 0u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(pool.tasks_completed(), 50u);
  EXPECT_EQ(pool.queue_depth(), 0u);  // drained
}

TEST(ThreadPoolTest, CompletedCounterMatchesParallelForChunks) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  // ParallelFor splits [0, n) into chunks of ceil(n / min(n, (threads + 1)
  // * 16)) indices, each counted once whether the caller or a worker ran
  // it; the helper tasks that claim chunks are not counted themselves.
  pool.ParallelFor(0, 3, [&hits](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 3);
  EXPECT_EQ(pool.tasks_completed(), 3u);
  pool.ParallelFor(0, 200, [&hits](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 203);
  EXPECT_EQ(pool.tasks_completed(), 3u + 67u);  // chunks of 3
  pool.WaitIdle();  // late helpers have exited without counting
  EXPECT_EQ(pool.tasks_completed(), 3u + 67u);
}

/// Polls \p flag for up to five seconds.
bool BecomesTrue(const std::atomic<bool>& flag) {
  for (int i = 0; i < 5000 && !flag.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return flag.load();
}

TEST(ThreadPoolTest, ConcurrentParallelForsWaitOnlyForTheirOwnRange) {
  ThreadPool pool(2);
  // Caller A's three slow indices park A itself and both workers.
  std::mutex gate;
  gate.lock();
  std::atomic<int> parked{0};
  std::vector<std::atomic<int>> slow_hits(3);
  std::atomic<bool> a_done{false};
  std::thread a([&] {
    pool.ParallelFor(0, 3, [&](size_t i) {
      parked.fetch_add(1);
      gate.lock();
      gate.unlock();
      slow_hits[i].fetch_add(1);
    });
    a_done.store(true);
  });
  while (parked.load() < 3) std::this_thread::yield();

  // Caller B shares the pool; with no worker free it runs its whole range
  // itself and returns while A's tasks are still parked.
  std::vector<std::atomic<int>> fast_hits(50);
  std::atomic<bool> b_done{false};
  std::thread b([&] {
    pool.ParallelFor(0, 50, [&](size_t i) { fast_hits[i].fetch_add(1); });
    b_done.store(true);
  });
  EXPECT_TRUE(BecomesTrue(b_done));
  EXPECT_FALSE(a_done.load());
  for (const auto& h : fast_hits) EXPECT_EQ(h.load(), 1);

  gate.unlock();
  EXPECT_TRUE(BecomesTrue(a_done));
  a.join();
  b.join();
  for (const auto& h : slow_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, CallerRunsEveryChunkOnInlinePool) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(40);
  pool.ParallelFor(0, 40, [&ran_on](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, InlineModeCountsWork) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.queue_depth(), 0u);
  pool.Submit([] {});
  EXPECT_EQ(pool.tasks_completed(), 1u);
  // Inline ParallelFor runs the whole range as one task.
  pool.ParallelFor(0, 5, [](size_t) {});
  EXPECT_EQ(pool.tasks_completed(), 2u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, UnboundedSubmitAlwaysAccepts) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.max_queue(), 0u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(pool.Submit([] {}));
  }
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_rejected(), 0u);
}

TEST(ThreadPoolTest, RejectPolicyShedsTasksAtCapacity) {
  ThreadPoolOptions options;
  options.num_threads = 1;
  options.max_queue = 1;
  options.overflow = QueueOverflowPolicy::kReject;
  ThreadPool pool(options);
  EXPECT_EQ(pool.max_queue(), 1u);

  // Park the single worker so queued tasks cannot drain.
  std::mutex gate;
  gate.lock();
  std::atomic<bool> worker_running{false};
  ASSERT_TRUE(pool.Submit([&gate, &worker_running] {
    worker_running.store(true);
    gate.lock();
    gate.unlock();
  }));
  while (!worker_running.load()) std::this_thread::yield();

  // One slot in the queue: first fills it, second must be rejected.
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  EXPECT_FALSE(pool.Submit([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(pool.tasks_rejected(), 1u);

  gate.unlock();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1);  // the rejected task never ran
}

TEST(ThreadPoolTest, ParallelForCoversRangeOnRejectPool) {
  // A kReject pool with a full queue takes no helper; the caller runs
  // every chunk itself and returns without waiting for the parked worker.
  ThreadPoolOptions options;
  options.num_threads = 1;
  options.max_queue = 1;
  options.overflow = QueueOverflowPolicy::kReject;
  ThreadPool pool(options);

  // Park the worker, then fill the single queue slot.
  std::mutex gate;
  gate.lock();
  std::atomic<bool> worker_running{false};
  ASSERT_TRUE(pool.Submit([&gate, &worker_running] {
    worker_running.store(true);
    gate.lock();
    gate.unlock();
  }));
  while (!worker_running.load()) std::this_thread::yield();
  ASSERT_TRUE(pool.Submit([] {}));  // occupies the queue slot

  std::vector<std::atomic<int>> hits(64);
  std::vector<std::thread::id> ran_on(64);
  std::thread::id caller_id;
  std::atomic<bool> done{false};
  std::thread caller([&] {
    caller_id = std::this_thread::get_id();
    pool.ParallelFor(0, 64, [&](size_t i) {
      hits[i].fetch_add(1);
      ran_on[i] = std::this_thread::get_id();
    });
    done.store(true);
  });
  const bool returned_while_parked = BecomesTrue(done);
  gate.unlock();
  caller.join();
  EXPECT_TRUE(returned_while_parked);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller_id);
  EXPECT_EQ(pool.tasks_rejected(), 0u);  // a dropped helper is no rejection
  pool.WaitIdle();
}

TEST(ThreadPoolTest, BlockPolicyWaitsForSpace) {
  ThreadPoolOptions options;
  options.num_threads = 1;
  options.max_queue = 1;
  options.overflow = QueueOverflowPolicy::kBlock;
  ThreadPool pool(options);

  std::mutex gate;
  gate.lock();
  std::atomic<bool> worker_running{false};
  ASSERT_TRUE(pool.Submit([&gate, &worker_running] {
    worker_running.store(true);
    gate.lock();
    gate.unlock();
  }));
  while (!worker_running.load()) std::this_thread::yield();

  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));  // fills the queue

  // The next Submit blocks until the worker frees a slot.
  std::atomic<bool> accepted{false};
  std::thread submitter([&pool, &ran, &accepted] {
    accepted.store(pool.Submit([&ran] { ran.fetch_add(1); }));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(accepted.load());  // still parked behind the full queue

  gate.unlock();
  submitter.join();
  EXPECT_TRUE(accepted.load());
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(pool.tasks_rejected(), 0u);
}

}  // namespace
}  // namespace vs
