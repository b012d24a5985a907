#ifndef TOUCH_UTIL_WORKER_POOL_H_
#define TOUCH_UTIL_WORKER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace touch {

/// Which pool workers, other than the caller, ran at least one chunk of the
/// ForkJoin calls it was passed to: one blocking phase's `helpers` count
/// (a phase may fork several times, e.g. once per STR level).
class HelperSet {
 public:
  /// Distinct workers that ran at least one chunk.
  int count() const;

 private:
  friend class WorkerPool;
  // One flag per worker index. A helper sets its own flag after claiming a
  // chunk; the caller reads the flags once ForkJoin returned, which orders
  // after every claimed chunk.
  std::vector<uint8_t> ran_;
};

/// Reusable fixed-size worker pool: the only code that starts threads. The
/// engine keeps one pool alive across queries, so a steady stream of
/// batches pays thread start-up once.
///
/// Besides whole tasks, a thread already inside a blocking phase can borrow
/// the pool's idle workers through ForkJoin (see there): a lone request then
/// uses the whole pool, while a saturated pool runs it exactly as before.
///
/// ## Shutdown ordering
///
/// The destructor (1) sets `stopping_` under `mutex_`, (2) wakes every
/// worker, then (3) joins them. Workers drain the queue first: a worker only
/// exits when `stopping_` is set AND the queue is empty, so every task that
/// was enqueued before the destructor ran still executes (and delivers its
/// `on_done`) before the join completes. Consequences callers rely on:
///
///   - Tasks and `on_done` callbacks may keep running between steps (1) and
///     (3); anything they reference must outlive the pool.
///   - `Submit` racing with destruction is a caller bug (the pool's memory
///     is about to vanish). It is still handled deterministically: once
///     `stopping_` is observed the task body is skipped, `on_done` runs
///     inline on the submitting thread, and a debug assert fires — the
///     completion contract ("every Submit is eventually delivered") holds
///     even in that window, and nothing is left in the queue for a worker
///     that may already have exited.
///   - `should_run` gates are consulted by the worker *after* dequeue, so a
///     task skipped by its gate still counts toward `tasks_completed()`.
class WorkerPool {
 public:
  /// `threads` <= 0 uses the hardware concurrency (at least 1).
  explicit WorkerPool(int threads = 0);

  /// Drains outstanding tasks, then joins the workers (see "Shutdown
  /// ordering" above).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // --- Load signals (the metrics registry's pool gauges) -------------------

  /// Tasks waiting in the queue right now (excludes running ones).
  size_t queue_depth() const EXCLUDES(mutex_);

  /// Workers between dequeuing a task and finishing it (its should_run,
  /// body and on_done). Counted at dequeue, under the queue lock, so
  /// ForkJoin never mistakes a worker that just took a task for an idle one.
  int busy_workers() const {
    return busy_workers_.load(std::memory_order_relaxed);
  }

  /// Tasks finished since construction — including tasks whose should_run
  /// declined (their completion was still delivered), so this counter plus
  /// queue_depth plus busy_workers accounts for every Submit.
  uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

  /// Enqueues a task; returns immediately.
  void Submit(std::function<void()> task) EXCLUDES(mutex_);

  /// Enqueues a task with a per-task completion notification: `on_done`
  /// runs on the worker thread immediately after `task` returns — or after
  /// it throws, so completion is delivered even for failing tasks. This is
  /// what lets the engine complete per-request futures without waiting for
  /// a whole batch to drain.
  ///
  /// `should_run` (optional) makes the task conditional: the worker calls
  /// it once, right before running the task, outside the queue lock. When
  /// it returns false the task body is skipped entirely and the worker goes
  /// straight to `on_done` — a task obsoleted while queued (a cancelled
  /// request) costs the pool a function call, not an execution.
  void Submit(std::function<void()> task, std::function<void()> on_done,
              std::function<bool()> should_run = nullptr) EXCLUDES(mutex_);

  /// Blocks until every task submitted so far has finished (tasks enqueued
  /// by other threads while waiting extend the wait).
  void WaitIdle() EXCLUDES(mutex_);

  /// Fork-join over chunks [0, n): runs `body(chunk, slot)` once per chunk
  /// and returns when every claimed chunk has finished. The calling thread
  /// claims and runs chunks itself (slot 0). It offers helper tasks only to
  /// the workers idle right now (thread_count - busy - queued, at most
  /// n - 1), so a saturated pool offers none and the caller runs every
  /// chunk in order. Helpers take slots 1..thread_count(), one each, so
  /// per-slot scratch needs ForkJoinSlots(pool) entries. A helper stops
  /// claiming as soon as a submitted task waits in the queue: a pool that
  /// fills up gets its borrowed workers back at the next chunk boundary,
  /// and the caller runs what is left.
  ///
  /// Chunks are claimed in increasing order from one shared counter. A
  /// helper that starts after the last chunk was claimed touches only the
  /// refcounted counter, never `body`. If a chunk throws, chunks claimed
  /// later skip their body, and the first exception is rethrown here after
  /// every claimed chunk finished. `helpers` (optional) records which
  /// workers ran a chunk.
  ///
  /// Helper tasks go through the queue like any task, so queue_depth and
  /// tasks_completed count them.
  void ForkJoin(size_t n, const std::function<void(size_t, size_t)>& body,
                HelperSet* helpers = nullptr) EXCLUDES(mutex_);

 private:
  struct Task {
    std::function<void()> run;
    std::function<void()> on_done;     // may be null
    std::function<bool()> should_run;  // may be null (always run)
    bool helper = false;               // a ForkJoin helper
  };

  void WorkerLoop(int index) EXCLUDES(mutex_);

  std::atomic<int> busy_workers_{0};
  // Queued tasks that are not ForkJoin helpers; written under mutex_, read
  // lock-free by helpers deciding whether to give their worker back.
  std::atomic<int> queued_tasks_{0};
  std::atomic<uint64_t> tasks_completed_{0};
  mutable Mutex mutex_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<Task> queue_ GUARDED_BY(mutex_);
  size_t in_flight_ GUARDED_BY(mutex_) = 0;  // queued + currently running
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

/// Slots a ForkJoin body may see on `pool` (null: the caller alone).
inline size_t ForkJoinSlots(const WorkerPool* pool) {
  return pool == nullptr ? 1 : static_cast<size_t>(pool->thread_count()) + 1;
}

/// ForkJoin on `pool`; a null pool runs every chunk on the caller, slot 0.
void ForkJoin(WorkerPool* pool, size_t n,
              const std::function<void(size_t, size_t)>& body,
              HelperSet* helpers = nullptr);

}  // namespace touch

#endif  // TOUCH_UTIL_WORKER_POOL_H_
