#include "util/worker_pool.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <memory>
#include <utility>

namespace touch {
namespace {

// Index of the calling thread within its pool, -1 off-pool: how a helper
// names itself in a HelperSet.
thread_local int current_worker_index = -1;

// One ForkJoin call's shared state. Helpers hold it by shared_ptr, so one
// dequeued after the caller returned still has a live counter to find
// exhausted; `body` (like the HelperSet flags a helper sets) lives in the
// caller's frame and is only touched after a successful claim, while the
// caller still waits.
struct ForkJoinState {
  ForkJoinState(size_t chunks,
                const std::function<void(size_t, size_t)>& chunk_body)
      : n(chunks), body(&chunk_body) {}

  const size_t n;
  const std::function<void(size_t, size_t)>* const body;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  Mutex mutex;
  CondVar all_done;
  size_t done GUARDED_BY(mutex) = 0;
  std::exception_ptr error GUARDED_BY(mutex);
};

// Claims and runs chunks until the counter passes n. A helper
// (`worker_index` >= 0; the caller passes -1) flags itself in `ran`, which
// like `body` lives in the caller's frame, and gives up before a claim
// once `queued` (null for the caller) counts a waiting task.
void RunChunks(ForkJoinState& state, size_t slot, int worker_index,
               std::vector<uint8_t>* ran, const std::atomic<int>* queued) {
  bool claimed_any = false;
  for (;;) {
    if (queued != nullptr && queued->load(std::memory_order_relaxed) > 0) {
      return;
    }
    const size_t chunk = state.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= state.n) return;
    if (!claimed_any && ran != nullptr && worker_index >= 0) {
      (*ran)[static_cast<size_t>(worker_index)] = 1;
    }
    claimed_any = true;
    std::exception_ptr error;
    if (!state.failed.load(std::memory_order_relaxed)) {
      try {
        (*state.body)(chunk, slot);
      } catch (...) {
        error = std::current_exception();
        state.failed.store(true, std::memory_order_relaxed);
      }
    }
    MutexLock lock(state.mutex);
    if (error && !state.error) state.error = error;
    if (++state.done == state.n) state.all_done.NotifyAll();
  }
}

}  // namespace

int HelperSet::count() const {
  return static_cast<int>(std::count(ran_.begin(), ran_.end(), uint8_t{1}));
}

WorkerPool::WorkerPool(int threads) {
  if (threads <= 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::Submit(std::function<void()> task) {
  Submit(std::move(task), nullptr);
}

void WorkerPool::Submit(std::function<void()> task,
                        std::function<void()> on_done,
                        std::function<bool()> should_run) {
  bool rejected = false;
  {
    MutexLock lock(mutex_);
    // Submitting into a stopping pool is a lifetime bug on the caller's
    // side, but resolve the race deterministically rather than leaving a
    // task in a queue no worker will drain: skip the body, deliver the
    // completion inline below, and trip a debug assert.
    assert(!stopping_ && "WorkerPool::Submit after destruction began");
    if (stopping_) {
      rejected = true;
    } else {
      queue_.push_back(
          Task{std::move(task), std::move(on_done), std::move(should_run)});
      ++in_flight_;
      queued_tasks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (rejected) {
    if (on_done) {
      try {
        on_done();
      } catch (...) {
      }
    }
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  work_available_.NotifyOne();
}

size_t WorkerPool::queue_depth() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

void WorkerPool::WaitIdle() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) idle_.Wait(lock);
}

void WorkerPool::ForkJoin(size_t n,
                          const std::function<void(size_t, size_t)>& body,
                          HelperSet* helpers) {
  if (n == 0) return;
  std::vector<uint8_t>* ran = nullptr;
  if (helpers != nullptr) {
    if (helpers->ran_.size() < workers_.size()) {
      helpers->ran_.resize(workers_.size(), 0);
    }
    ran = &helpers->ran_;
  }
  const auto state = std::make_shared<ForkJoinState>(n, body);
  size_t offered = 0;
  {
    MutexLock lock(mutex_);
    // A pool being torn down offers nothing: the caller alone still runs
    // every chunk, so a request draining during shutdown completes.
    const int idle = thread_count() -
                     busy_workers_.load(std::memory_order_relaxed) -
                     static_cast<int>(queue_.size());
    if (!stopping_ && idle > 0) {
      offered = std::min(n - 1, static_cast<size_t>(idle));
    }
    for (size_t slot = 1; slot <= offered; ++slot) {
      queue_.push_back(Task{[this, state, slot, ran] {
                              RunChunks(*state, slot, current_worker_index,
                                        ran, &queued_tasks_);
                            },
                            nullptr, nullptr, /*helper=*/true});
    }
    in_flight_ += offered;
  }
  for (size_t i = 0; i < offered; ++i) work_available_.NotifyOne();
  RunChunks(*state, 0, -1, ran, nullptr);
  std::exception_ptr error;
  {
    MutexLock lock(state->mutex);
    while (state->done != n) state->all_done.Wait(lock);
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
}

void ForkJoin(WorkerPool* pool, size_t n,
              const std::function<void(size_t, size_t)>& body,
              HelperSet* helpers) {
  if (pool != nullptr) {
    pool->ForkJoin(n, body, helpers);
    return;
  }
  for (size_t chunk = 0; chunk < n; ++chunk) body(chunk, 0);
}

void WorkerPool::WorkerLoop(int index) {
  current_worker_index = index;
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      // Explicit predicate loop (not cv.wait(lock, pred)): the thread-safety
      // analysis checks lambda bodies without the enclosing capability set,
      // so a predicate lambda could not read the guarded fields.
      while (!stopping_ && queue_.empty()) work_available_.Wait(lock);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      busy_workers_.fetch_add(1, std::memory_order_relaxed);
      if (!task.helper) queued_tasks_.fetch_sub(1, std::memory_order_relaxed);
    }
    // Tasks own their error reporting (the engine converts failures into
    // JoinResult::error); an escaping exception must not take down the pool
    // thread or leave in_flight_ stuck for WaitIdle. on_done runs either
    // way — completion must reach waiters even when the task failed or was
    // skipped by its should_run condition.
    try {
      if (!task.should_run || task.should_run()) task.run();
    } catch (...) {
    }
    if (task.on_done) {
      try {
        task.on_done();
      } catch (...) {
      }
    }
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

}  // namespace touch
