#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace famtree {
namespace {

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // nothing submitted
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

class ThreadPoolParallelForTest : public testing::TestWithParam<int> {};

TEST_P(ThreadPoolParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(777);
  for (auto& h : hits) h.store(0);
  Status st = pool.ParallelFor(777, [&hits](int64_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ThreadPoolParallelForTest, ReportsLowestFailingIndex) {
  ThreadPool pool(GetParam());
  // Indices 5 and above all fail; the reported message must always be the
  // one from index 5 regardless of scheduling.
  for (int round = 0; round < 20; ++round) {
    Status st = pool.ParallelFor(200, [](int64_t i) {
      if (i >= 5) {
        return Status::Invalid("fail at " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "fail at 5");
  }
}

TEST_P(ThreadPoolParallelForTest, EmptyRangeIsOk) {
  ThreadPool pool(GetParam());
  EXPECT_TRUE(pool.ParallelFor(0, [](int64_t) {
                    return Status::Invalid("never runs");
                  }).ok());
}

TEST_P(ThreadPoolParallelForTest, HardStopDropsEveryWorkerAtItsNextClaim) {
  ThreadPool pool(GetParam());
  // Every index from 50 on is a run-control stop. The first one latches
  // hard_stop, after which each thread finishes at most the iteration it is
  // in plus one it claimed before seeing the flag.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> calls{0};
    Status st = pool.ParallelFor(10000, [&calls](int64_t i) {
      calls.fetch_add(1);
      if (i >= 50) return Status::Cancelled("stop at " + std::to_string(i));
      return Status::OK();
    });
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
    EXPECT_LE(calls.load(), 50 + 2 * (GetParam() + 1)) << "round " << round;
  }
}

TEST_P(ThreadPoolParallelForTest, NestedInsidePoolTaskCompletes) {
  // Every worker runs a task that itself calls ParallelFor: the pool-global
  // Wait() would wait on the calling task forever. The per-call latch lets
  // each caller finish its own range, helped or not.
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int64_t>> sums(pool.num_threads());
  std::vector<Status> statuses(pool.num_threads());
  for (int t = 0; t < pool.num_threads(); ++t) {
    sums[t].store(0);
    pool.Submit([&pool, &sums, &statuses, t] {
      statuses[t] = pool.ParallelFor(100, [&sums, t](int64_t i) {
        sums[t].fetch_add(i);
        return Status::OK();
      });
    });
  }
  pool.Wait();
  for (int t = 0; t < pool.num_threads(); ++t) {
    EXPECT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    EXPECT_EQ(sums[t].load(), 100 * 99 / 2) << "task " << t;
  }
}

TEST_P(ThreadPoolParallelForTest, ReturnsWhileUnrelatedTaskIsBlocked) {
  ThreadPool pool(GetParam());
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> unrelated_done{false};
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return released; });
    unrelated_done.store(true);
  });
  std::atomic<int64_t> sum{0};
  Status st = pool.ParallelFor(500, [&sum](int64_t i) {
    sum.fetch_add(i);
    return Status::OK();
  });
  // The call returned although the unrelated task is still parked.
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sum.load(), 500 * 499 / 2);
  EXPECT_FALSE(unrelated_done.load());
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_TRUE(unrelated_done.load());
}

/// The round whose ParallelFor is still running; fn calls observed outside
/// it are calls after return.
std::atomic<int> g_open_round{-1};
std::atomic<int> g_late_calls{0};

TEST_P(ThreadPoolParallelForTest, NoIterationRunsAfterReturn) {
  ThreadPool pool(GetParam());
  for (int round = 0; round < 200; ++round) {
    // Busy tasks delay the helpers, so many of them start only after the
    // caller finished the range alone and returned.
    for (int b = 0; b < pool.num_threads(); ++b) {
      pool.Submit([] {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      });
    }
    std::vector<int> hits(16, 0);  // caller-stack state fn writes
    std::mutex hits_mu;
    g_open_round.store(round);
    Status st = pool.ParallelFor(16, [&hits, &hits_mu, round](int64_t i) {
      // Slow iterations keep helpers inside fn while the caller runs out of
      // indices, so a caller that returned early would be seen here.
      std::this_thread::sleep_for(std::chrono::microseconds(30));
      if (g_open_round.load() != round) g_late_calls.fetch_add(1);
      std::lock_guard<std::mutex> lock(hits_mu);
      ++hits[i];
      return Status::OK();
    });
    g_open_round.store(-1);
    ASSERT_TRUE(st.ok());
    for (int h : hits) ASSERT_EQ(h, 1) << "round " << round;
  }
  pool.Wait();
  EXPECT_EQ(g_late_calls.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolParallelForTest,
                         testing::Values(1, 2, 8));

TEST(ThreadPoolTest, FreeFunctionFallsBackToSerialWithoutPool) {
  std::vector<int> hits(50, 0);
  Status st = ParallelFor(nullptr, 50, [&hits](int64_t i) {
    hits[i] += 1;  // no synchronization needed: serial fallback
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, FreeFunctionStopsAtFirstSerialError) {
  int ran_up_to = -1;
  Status st = ParallelFor(nullptr, 10, [&ran_up_to](int64_t i) {
    ran_up_to = static_cast<int>(i);
    if (i == 3) return Status::Internal("boom");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(ran_up_to, 3);
}

TEST(ThreadPoolTest, ManySmallParallelForsReuseWorkers) {
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    Status st = pool.ParallelFor(64, [&sum](int64_t i) {
      sum.fetch_add(i);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

}  // namespace
}  // namespace famtree
