#include "common/threadpool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "testing/fault_injection.h"

namespace vs {

namespace {

/// Cached handles into the default registry (amortized registration).
struct PoolMetrics {
  obs::Counter* tasks_completed;
  obs::Gauge* queue_depth;
  obs::Histogram* task_wait_seconds;
  obs::Histogram* task_run_seconds;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      return PoolMetrics{
          r.GetCounter("threadpool.tasks_completed",
                       "tasks finished across all pools"),
          r.GetGauge("threadpool.queue_depth",
                     "tasks waiting in the most recently active pool"),
          r.GetHistogram("threadpool.task_wait_seconds",
                         obs::DefaultLatencyBuckets(),
                         "enqueue-to-dequeue latency"),
          r.GetHistogram("threadpool.task_run_seconds",
                         obs::DefaultLatencyBuckets(),
                         "task execution time"),
      };
    }();
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : ThreadPool(ThreadPoolOptions{num_threads, 0,
                                   QueueOverflowPolicy::kBlock}) {}

ThreadPool::ThreadPool(const ThreadPoolOptions& options)
    : max_queue_(options.max_queue), overflow_(options.overflow) {
  PoolMetrics::Get();  // register the pool metrics eagerly
  threads_.reserve(options.num_threads);
  for (size_t i = 0; i < options.num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  cv_space_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::CountCompleted() {
  tasks_completed_.fetch_add(1, std::memory_order_relaxed);
  PoolMetrics::Get().tasks_completed->Increment();
}

void ThreadPool::FinishTask(const Task& task, bool timed) {
  const bool observe = obs::MetricsRegistry::Default().enabled();
  if (observe && timed) {
    // enqueued was restarted at dequeue; it now holds the run time.
    PoolMetrics::Get().task_run_seconds->Observe(
        task.enqueued.ElapsedSeconds());
  }
  if (task.counted) CountCompleted();
}

bool ThreadPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    Task t{std::move(task), Stopwatch()};
    t.fn();
    FinishTask(t, /*timed=*/true);
    return true;
  }
  // Injected overflow: behave exactly as a full kReject queue would, so
  // every Submit caller's shedding path is testable without real load.
  if (VS_FAULT("threadpool.submit_reject")) {
    tasks_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return Enqueue(Task{std::move(task), Stopwatch()});
}

bool ThreadPool::Enqueue(Task task) {
  size_t depth;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (max_queue_ > 0 && queue_.size() >= max_queue_) {
      // A ParallelFor helper never waits and is never a rejection: the
      // caller runs the chunks it would have claimed.
      if (!task.counted) return false;
      if (overflow_ == QueueOverflowPolicy::kReject) {
        tasks_rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      cv_space_.wait(lock, [this] {
        return shutdown_ || queue_.size() < max_queue_;
      });
      if (shutdown_) {
        tasks_rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    queue_.push(std::move(task));
    depth = queue_.size();
  }
  PoolMetrics::Get().queue_depth->Set(static_cast<double>(depth));
  cv_task_.notify_one();
  return true;
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::WaitIdle() {
  if (threads_.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  if (threads_.empty()) {
    for (size_t i = begin; i < end; ++i) fn(i);
    CountCompleted();
    return;
  }
  const size_t n = end - begin;
  const size_t target_chunks = std::min(n, (threads_.size() + 1) * 16);
  const size_t chunk_size = (n + target_chunks - 1) / target_chunks;
  const size_t chunks = (n + chunk_size - 1) / chunk_size;

  // The call's own bookkeeping.  Helpers hold it by shared_ptr because one
  // may be dequeued after the call has returned; such a helper claims no
  // chunk, so it never touches fn (borrowed from the caller's frame).
  struct Call {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
  };
  auto call = std::make_shared<Call>();
  const std::function<void(size_t)>* body = &fn;
  auto run_chunks = [this, call, body, begin, end, chunk_size, chunks] {
    while (true) {
      const size_t c = call->next.fetch_add(1);
      if (c >= chunks) return;
      const size_t start = begin + c * chunk_size;
      const size_t stop = std::min(end, start + chunk_size);
      for (size_t i = start; i < stop; ++i) (*body)(i);
      CountCompleted();
      std::lock_guard<std::mutex> lock(call->mu);
      if (++call->done == chunks) call->cv.notify_all();
    }
  };
  const size_t helpers = std::min(threads_.size(), chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Task helper{run_chunks, Stopwatch()};
    helper.counted = false;
    if (!Enqueue(std::move(helper))) break;  // bounded queue full
  }
  run_chunks();
  std::unique_lock<std::mutex> lock(call->mu);
  call->cv.wait(lock, [&call, chunks] { return call->done == chunks; });
}

size_t ThreadPool::DefaultThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? hc - 1 : 0;
}

void ThreadPool::WorkerLoop() {
  const PoolMetrics& m = PoolMetrics::Get();
  while (true) {
    Task task;
    size_t depth;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
      depth = queue_.size();
      ++in_flight_;
    }
    if (max_queue_ > 0) cv_space_.notify_one();
    const bool observe = obs::MetricsRegistry::Default().enabled();
    if (observe) {
      m.queue_depth->Set(static_cast<double>(depth));
      m.task_wait_seconds->Observe(task.enqueued.ElapsedSeconds());
      task.enqueued.Restart();  // reuse as the run timer (see FinishTask)
    }
    task.fn();
    FinishTask(task, observe);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace vs
