#include "common/thread_pool.h"

#include <atomic>

#include "common/run_context.h"

namespace famtree {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  queues_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
    ++queued_;
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  wake_.notify_one();
}

bool ThreadPool::TryPop(int self, std::function<void()>* task) {
  // Own queue first (front: most recently local work)...
  {
    Queue& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      *task = std::move(q.tasks.front());
      q.tasks.pop_front();
      queued_.fetch_sub(1);
      return true;
    }
  }
  // ... then steal from the back of the siblings' queues.
  int n = static_cast<int>(queues_.size());
  for (int d = 1; d < n; ++d) {
    Queue& q = *queues_[(self + d) % n];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      *task = std::move(q.tasks.back());
      q.tasks.pop_back();
      queued_.fetch_sub(1);
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  for (;;) {
    std::function<void()> task;
    if (TryPop(self, &task)) {
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --outstanding_;
        if (outstanding_ == 0) idle_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    // Submit counts a task under mu_ before notifying, so a task submitted
    // after the failed TryPop is seen here instead of slept through until
    // the timeout.
    wake_.wait_for(lock, std::chrono::milliseconds(1),
                   [this] { return shutdown_ || queued_.load() > 0; });
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return outstanding_ == 0; });
}

Status ThreadPool::ParallelFor(int64_t n,
                               const std::function<Status(int64_t)>& fn) {
  if (n <= 0) return Status::OK();
  // Shared iteration cursor: workers (and the calling thread) claim indices
  // until the range is exhausted or a failure is seen. The failure with the
  // smallest index wins so the reported Status does not depend on timing.
  struct Shared {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> first_error_index{-1};
    /// Set on the first run-control failure (kCancelled, kDeadlineExceeded,
    /// kResourceExhausted): every worker drops out at its next claim, even
    /// at indices below the failure. Callers discard the whole batch on a
    /// stop, so losing the lowest-index guarantee there costs nothing,
    /// while the prompt halt is what bounds cancellation latency.
    std::atomic<bool> hard_stop{false};
    std::mutex mu;
    /// Per-call latch: helpers inside the claim loop, guarded by mu. The
    /// caller waits for zero, never for unrelated pool work.
    int in_flight = 0;
    std::condition_variable done;
    Status status;
  };
  auto shared = std::make_shared<Shared>();
  auto claim_loop = [n, &fn](Shared& s) {
    for (;;) {
      if (s.hard_stop.load(std::memory_order_acquire)) return;
      int64_t i = s.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      int64_t err = s.first_error_index.load(std::memory_order_acquire);
      if (err >= 0 && err < i) return;  // already failed earlier in the range
      Status st = fn(i);
      if (!st.ok()) {
        bool stop = RunContext::IsStop(st);
        {
          std::lock_guard<std::mutex> lock(s.mu);
          int64_t cur = s.first_error_index.load();
          if (cur < 0 || i < cur) {
            s.first_error_index.store(i, std::memory_order_release);
            s.status = std::move(st);
          }
        }
        if (stop) s.hard_stop.store(true, std::memory_order_release);
      }
    }
  };
  // `fn` lives on the caller's stack, so only a registered helper may call
  // it. Registration and the caller's final latch read share `mu`: a helper
  // that registers after the caller returned sees everything the caller saw
  // — the exhausted cursor, hard_stop or the earlier failure — and leaves
  // without claiming an index it would run.
  int helpers = std::min<int64_t>(num_threads(), n);
  for (int t = 0; t < helpers; ++t) {
    Submit([shared, claim_loop] {
      {
        std::lock_guard<std::mutex> lock(shared->mu);
        ++shared->in_flight;
      }
      claim_loop(*shared);
      std::lock_guard<std::mutex> lock(shared->mu);
      if (--shared->in_flight == 0) shared->done.notify_all();
    });
  }
  claim_loop(*shared);  // the caller participates instead of blocking idle
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->done.wait(lock, [&] { return shared->in_flight == 0; });
  return shared->status;
}

Status ParallelFor(ThreadPool* pool, int64_t n,
                   const std::function<Status(int64_t)>& fn) {
  if (pool != nullptr && n > 1 && pool->num_threads() > 1) {
    return pool->ParallelFor(n, fn);
  }
  for (int64_t i = 0; i < n; ++i) FAMTREE_RETURN_NOT_OK(fn(i));
  return Status::OK();
}

}  // namespace famtree
