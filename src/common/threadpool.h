#ifndef VS_COMMON_THREADPOOL_H_
#define VS_COMMON_THREADPOOL_H_

/// \file threadpool.h
/// \brief Fixed-size worker pool for embarrassingly parallel feature
/// computation.  On single-core machines the pool degrades to executing
/// tasks inline, which keeps behaviour deterministic there.
///
/// Observability: every pool feeds the process-wide obs::MetricsRegistry —
/// `threadpool.tasks_completed` (counter), `threadpool.queue_depth`
/// (gauge), and `threadpool.task_wait_seconds` / `threadpool.task_run_
/// seconds` (histograms) — and exposes queue_depth() / tasks_completed()
/// accessors for direct inspection in tests.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/stopwatch.h"

namespace vs {

/// What Submit() does when a bounded queue is at capacity.
enum class QueueOverflowPolicy {
  kBlock,   ///< wait for a worker to free a slot (default)
  kReject,  ///< return false immediately — the backpressure policy
};

/// \brief ThreadPool construction parameters.
struct ThreadPoolOptions {
  /// Worker count; 0 selects inline execution.
  size_t num_threads = 0;
  /// Maximum tasks waiting in the queue (excludes running tasks);
  /// 0 = unbounded.  Ignored in inline mode.
  size_t max_queue = 0;
  /// Applied only when max_queue > 0.
  QueueOverflowPolicy overflow = QueueOverflowPolicy::kBlock;
};

/// \brief A minimal fork-join thread pool.
///
/// Submit() enqueues tasks; WaitIdle() blocks until the queue is drained and
/// all workers are idle.  ParallelFor() blocks until one range has been
/// fully processed; the calling thread runs chunks of it too, and it waits
/// only for its own range, so several threads can share one pool without
/// waiting on each other's work.  A bounded queue (ThreadPoolOptions::
/// max_queue) adds backpressure: Submit either blocks for space or rejects
/// the task per the overflow policy — the serve layer uses kReject to turn
/// overload into fast 503s instead of unbounded memory growth.
class ThreadPool {
 public:
  /// Creates a pool with \p num_threads workers and an unbounded queue.
  /// num_threads == 0 selects inline execution (no worker threads; Submit
  /// runs the task immediately).
  explicit ThreadPool(size_t num_threads);
  explicit ThreadPool(const ThreadPoolOptions& options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues \p task for execution.  Returns true when the task was
  /// accepted (always, for unbounded or inline pools).  With a bounded
  /// queue at capacity, kBlock waits for space and kReject returns false
  /// without running the task; false is also returned when blocking was
  /// interrupted by pool shutdown.
  bool Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void WaitIdle();

  /// Runs fn(i) for i in [begin, end); blocks until every index has run.
  /// The range is cut into chunks of ceil(n / min(n, 16 * (num_threads() +
  /// 1))) indices that the caller and up to num_threads() helper tasks
  /// claim in index order.  The caller runs chunks itself, so the call
  /// completes even when no helper is queued (a full bounded queue) or
  /// every worker is busy.  Each chunk counts as one completed task; an
  /// inline pool runs the range as one task.  The call waits on its own
  /// chunk count, never on WaitIdle.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// Number of worker threads (0 for inline mode).
  size_t num_threads() const { return threads_.size(); }

  /// Tasks currently waiting in the queue (excludes running tasks; always
  /// 0 in inline mode).
  size_t queue_depth() const;

  /// Total tasks this pool has finished running (inline tasks included).
  uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

  /// Tasks rejected by a full bounded queue under kReject.
  uint64_t tasks_rejected() const {
    return tasks_rejected_.load(std::memory_order_relaxed);
  }

  /// Queue capacity (0 = unbounded).
  size_t max_queue() const { return max_queue_; }

  /// A sensible default worker count for this machine: hardware_concurrency
  /// minus one, and inline mode on single-core hosts.
  static size_t DefaultThreads();

 private:
  struct Task {
    std::function<void()> fn;
    Stopwatch enqueued;  ///< measures queue wait for the obs histogram
    /// False for ParallelFor helpers, whose chunks are counted instead.
    bool counted = true;
  };

  /// Queues \p task under the bound and overflow policy; a helper
  /// (!task.counted) is dropped instead of waiting when the queue is full.
  bool Enqueue(Task task);
  /// Counts one finished task in tasks_completed and the obs counter.
  void CountCompleted();
  void WorkerLoop();
  void FinishTask(const Task& task, bool timed);

  std::vector<std::thread> threads_;
  std::queue<Task> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::condition_variable cv_space_;  ///< signalled on dequeue (bounded mode)
  size_t max_queue_ = 0;
  QueueOverflowPolicy overflow_ = QueueOverflowPolicy::kBlock;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::atomic<uint64_t> tasks_completed_{0};
  std::atomic<uint64_t> tasks_rejected_{0};
};

}  // namespace vs

#endif  // VS_COMMON_THREADPOOL_H_
