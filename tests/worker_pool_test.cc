#include "util/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace touch {
namespace {

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPoolTest, CompletionNotificationRunsAfterItsTask) {
  WorkerPool pool(2);
  std::atomic<bool> task_ran{false};
  std::promise<bool> order;
  pool.Submit([&task_ran] { task_ran = true; },
              [&] { order.set_value(task_ran.load()); });
  // The notification fires per task — observable without WaitIdle.
  EXPECT_TRUE(order.get_future().get());
}

TEST(WorkerPoolTest, CompletionNotificationRunsWhenTheTaskThrows) {
  WorkerPool pool(1);
  std::promise<void> done;
  pool.Submit([]() -> void { throw std::runtime_error("task failed"); },
              [&done] { done.set_value(); });
  done.get_future().wait();  // hangs (and times out the test) if dropped
  pool.WaitIdle();           // in_flight_ bookkeeping survived the throw
}

TEST(WorkerPoolTest, EveryTaskGetsItsOwnNotification) {
  WorkerPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> notified{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([] {},
                [&notified] { notified.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(notified.load(), kTasks);
}

TEST(WorkerPoolTest, ShouldRunFalseSkipsTheTaskButStillNotifies) {
  WorkerPool pool(1);
  std::atomic<bool> task_ran{false};
  std::promise<void> done;
  pool.Submit([&task_ran] { task_ran = true; },
              [&done] { done.set_value(); },
              [] { return false; });
  done.get_future().wait();
  EXPECT_FALSE(task_ran.load());
  pool.WaitIdle();  // in_flight_ bookkeeping covered the skipped task
}

TEST(WorkerPoolTest, ShouldRunIsConsultedOncePerTaskAtPopTime) {
  WorkerPool pool(2);
  constexpr int kTasks = 100;
  std::atomic<int> consulted{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                nullptr,
                [&consulted, i] {
                  consulted.fetch_add(1, std::memory_order_relaxed);
                  return i % 2 == 0;  // every odd task is obsolete
                });
  }
  pool.WaitIdle();
  EXPECT_EQ(consulted.load(), kTasks);
  EXPECT_EQ(ran.load(), kTasks / 2);
}

TEST(WorkerPoolTest, DestructorDrainsPendingTasksAndNotifications) {
  std::atomic<int> ran{0};
  std::atomic<int> notified{0};
  {
    WorkerPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                  [&notified] {
                    notified.fetch_add(1, std::memory_order_relaxed);
                  });
    }
  }  // destructor joins after the queue drained
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(notified.load(), 50);
}

// --- Introspection (the metrics providers' data source) ---------------------

TEST(WorkerPoolTest, QueueDepthAndBusyWorkersObserveASaturatedPool) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.busy_workers(), 0);

  std::promise<void> reached;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  pool.Submit([&reached, release_future] {
    reached.set_value();
    release_future.wait();
  });
  reached.get_future().wait();
  // The single worker is parked inside its task; everything behind it
  // queues deterministically.
  EXPECT_EQ(pool.busy_workers(), 1);
  for (int i = 0; i < 3; ++i) pool.Submit([] {});
  EXPECT_EQ(pool.queue_depth(), 3u);

  release.set_value();
  pool.WaitIdle();
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.busy_workers(), 0);
}

TEST(WorkerPoolTest, TasksCompletedCountsRunAndSkippedTasks) {
  WorkerPool pool(2);
  for (int i = 0; i < 40; ++i) pool.Submit([] {});
  // Skipped tasks (should_run false at pop) still count as completed: the
  // counter tracks queue throughput, not work performed.
  for (int i = 0; i < 10; ++i) {
    pool.Submit([] {}, nullptr, [] { return false; });
  }
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_completed(), 50u);
}

// --- ForkJoin ----------------------------------------------------------------

TEST(WorkerPoolForkJoinTest, SaturatedPoolLeavesEveryChunkToTheCaller) {
  WorkerPool pool(2);
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> parked{0};
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&parked, release_future] {
      parked.fetch_add(1);
      release_future.wait();
    });
  }
  while (parked.load() < 2) std::this_thread::yield();
  ASSERT_EQ(pool.busy_workers(), 2);
  const uint64_t completed_before = pool.tasks_completed();

  std::vector<size_t> slots;
  HelperSet helpers;
  pool.ForkJoin(
      16, [&](size_t chunk, size_t slot) {
        EXPECT_EQ(chunk, slots.size());  // in order, on one thread
        slots.push_back(slot);
      },
      &helpers);
  EXPECT_EQ(slots, std::vector<size_t>(16, 0));
  EXPECT_EQ(pool.queue_depth(), 0u);  // no helper was offered
  EXPECT_EQ(helpers.count(), 0);

  release.set_value();
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_completed(), completed_before + 2);
}

// A helper offered to an idle worker usually wakes after the caller already
// ran every chunk and returned. It must then find the counter exhausted and
// touch nothing of the caller's frame — `hits` below is a fresh local per
// round, so a stray write is a stack-use-after-scope under ASan and a race
// under TSan.
TEST(WorkerPoolForkJoinTest, LateHelpersTouchNothingOfAReturnedCaller) {
  WorkerPool pool(3);
  for (int round = 0; round < 300; ++round) {
    std::vector<int> hits(4, 0);
    pool.ForkJoin(hits.size(),
                  [&hits](size_t chunk, size_t /*slot*/) { ++hits[chunk]; });
    EXPECT_EQ(hits, std::vector<int>(4, 1));
  }
  pool.WaitIdle();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkerPoolForkJoinTest, ThrowingChunkIsRethrownAfterClaimedChunksFinish) {
  WorkerPool pool(3);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  const auto body = [&](size_t chunk, size_t /*slot*/) {
    started.fetch_add(1);
    struct Finish {
      std::atomic<int>& finished;
      ~Finish() { finished.fetch_add(1); }
    } finish{finished};
    if (chunk == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      throw std::runtime_error("chunk failed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  EXPECT_THROW(pool.ForkJoin(8, body), std::runtime_error);
  // Every chunk that started had finished before the rethrow.
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_GE(started.load(), 1);
  pool.WaitIdle();
  EXPECT_EQ(started.load(), finished.load());
}

TEST(WorkerPoolForkJoinTest, EveryChunkRunsExactlyOnceAcrossPoolSizes) {
  constexpr size_t kChunks = 1000;
  for (int workers = 1; workers <= 8; ++workers) {
    WorkerPool pool(workers);
    const auto check = [&pool, workers] {
      std::vector<std::atomic<int>> runs(kChunks);
      HelperSet helpers;
      pool.ForkJoin(
          kChunks,
          [&](size_t chunk, size_t slot) {
            EXPECT_LT(slot, ForkJoinSlots(&pool));
            runs[chunk].fetch_add(1);
          },
          &helpers);
      for (size_t chunk = 0; chunk < kChunks; ++chunk) {
        ASSERT_EQ(runs[chunk].load(), 1) << "chunk " << chunk << " with "
                                         << workers << " workers";
      }
      EXPECT_LE(helpers.count(), workers);
    };
    check();  // called from outside the pool
    std::promise<void> done;
    pool.Submit(check, [&done] { done.set_value(); });  // from a worker
    done.get_future().wait();
    pool.WaitIdle();
  }
}

// Borrowed workers go back to submitted work: once tasks wait in the
// queue, each helper stops after the chunk it is running, and the caller
// finishes the rest. Two blocking tasks keep both workers once taken.
TEST(WorkerPoolForkJoinTest, HelpersYieldToQueuedTasks) {
  WorkerPool pool(2);
  constexpr size_t kChunks = 60;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> blockers_started{0};
  std::atomic<bool> submitted{false};
  std::atomic<int> helper_chunks_after_submit{0};
  std::atomic<bool> helper_seen{false};
  pool.ForkJoin(kChunks, [&](size_t chunk, size_t slot) {
    if (slot != 0) {
      helper_seen = true;
      if (submitted.load()) helper_chunks_after_submit.fetch_add(1);
    }
    if (slot == 0 && chunk >= 10 && helper_seen.load() &&
        !submitted.exchange(true)) {
      for (int i = 0; i < 2; ++i) {
        pool.Submit([&blockers_started, release_future] {
          blockers_started.fetch_add(1);
          release_future.wait();
        });
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  ASSERT_TRUE(submitted.load()) << "no helper ever ran a chunk";
  // Both workers left the fork-join for the queued tasks before it ended.
  EXPECT_EQ(blockers_started.load(), 2);
  // At most the chunk each helper had already claimed.
  EXPECT_LE(helper_chunks_after_submit.load(), 2);
  release.set_value();
  pool.WaitIdle();
}

TEST(WorkerPoolForkJoinTest, NullPoolRunsEveryChunkOnTheCaller) {
  std::vector<size_t> order;
  ForkJoin(nullptr, 5, [&order](size_t chunk, size_t slot) {
    EXPECT_EQ(slot, 0u);
    order.push_back(chunk);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ForkJoinSlots(nullptr), 1u);
}

}  // namespace
}  // namespace touch
