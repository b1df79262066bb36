#ifndef FAMTREE_COMMON_THREAD_POOL_H_
#define FAMTREE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace famtree {

/// A small work-stealing thread pool for the discovery engine. Tasks are
/// plain std::function<void()> callables distributed round-robin over
/// per-worker deques; an idle worker steals from the back of its siblings'
/// deques before sleeping. The pool never throws across its API — fallible
/// parallel work goes through ParallelFor, which collects Status values.
///
/// Determinism contract: the pool schedules work in an arbitrary order, so
/// callers that need reproducible output must write results into
/// pre-allocated, index-addressed slots and merge them in index order
/// afterwards. Every parallel algorithm in famtree follows that pattern,
/// which is what the differential tests in tests/engine_determinism_test.cc
/// lock down.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Runs fn(i) for every i in [0, n), spreading iterations over the
  /// workers (the calling thread participates). Returns the Status of the
  /// lowest failing index, or OK. Remaining iterations are skipped after
  /// the first failure is observed, but the reported Status is
  /// deterministic: it is always the failure with the smallest index among
  /// those that ran. Run-control failures (RunContext::IsStop) short-circuit
  /// harder: every worker drops out at its next claim regardless of index,
  /// so a cancelled run drains within one in-flight iteration per worker.
  ///
  /// Returns as soon as the range is claimed and this call's in-flight
  /// iterations have finished — a per-call latch, not the pool-global
  /// Wait(). A ParallelFor reached from inside a pool task therefore
  /// completes (the caller runs whatever its helpers do not), and
  /// concurrent callers never wait on each other's work. Helpers that start
  /// after the return find the range exhausted and never call `fn`.
  Status ParallelFor(int64_t n, const std::function<Status(int64_t)>& fn);

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int self);
  /// Pops one task, preferring worker `self`'s own deque, else stealing.
  bool TryPop(int self, std::function<void()>* task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards sleeping workers + bookkeeping
  std::condition_variable wake_;   // signalled on Submit and shutdown
  std::condition_variable idle_;   // signalled when outstanding_ hits zero
  int64_t outstanding_ = 0;        // submitted but not finished tasks
  /// Submitted but not yet popped tasks; raised under mu_, lowered by
  /// TryPop.
  std::atomic<int64_t> queued_{0};
  size_t next_queue_ = 0;          // round-robin submission cursor
  bool shutdown_ = false;
};

/// Convenience wrapper used by the discovery algorithms: serial fallback
/// when `pool` is null (or the range is trivial), pooled otherwise.
Status ParallelFor(ThreadPool* pool, int64_t n,
                   const std::function<Status(int64_t)>& fn);

}  // namespace famtree

#endif  // FAMTREE_COMMON_THREAD_POOL_H_
