#ifndef TOUCH_JOIN_ALGORITHM_H_
#define TOUCH_JOIN_ALGORITHM_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "geom/box.h"
#include "util/stats.h"

namespace touch {

/// Sink for result pairs. Pair ids are indices into the two input spans, in
/// (a, b) order regardless of any internal join-order swap an algorithm does.
///
/// Thread-safety contract: Emit calls must be externally serialized. TOUCH
/// with threads > 1 emits only from the calling thread, and the engine
/// drives each request's collector from a single worker thread.
class ResultCollector {
 public:
  virtual ~ResultCollector() = default;
  virtual void Emit(uint32_t a_id, uint32_t b_id) = 0;
};

/// Debug-only detector of unserialized Emit calls: an entry counter that
/// must never observe a concurrent entry. Zero-size and no-op in NDEBUG
/// builds. Serialized use from *different* threads (e.g. a mutex-guarded
/// gather) passes; only genuinely concurrent calls — the ones that corrupt a
/// non-atomic counter or vector — trip the assert.
class SerialEmitCheck {
 public:
  void Enter() {
#ifndef NDEBUG
    [[maybe_unused]] const int prior =
        in_emit_.fetch_add(1, std::memory_order_acquire);
    assert(prior == 0 &&
           "ResultCollector::Emit called concurrently; serialize calls");
#endif
  }
  void Exit() {
#ifndef NDEBUG
    in_emit_.fetch_sub(1, std::memory_order_release);
#endif
  }

 private:
#ifndef NDEBUG
  std::atomic<int> in_emit_{0};
#endif
};

/// Counts results without storing them (used by the benchmarks, where result
/// sets of millions of pairs would distort memory measurements).
///
/// Not thread-safe: Emit calls must be serialized (asserted in debug
/// builds).
class CountingCollector : public ResultCollector {
 public:
  void Emit(uint32_t, uint32_t) override {
    check_.Enter();
    ++count_;
    check_.Exit();
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
  SerialEmitCheck check_;
};

/// Materializes result pairs (used by tests and examples).
///
/// Not thread-safe: Emit calls must be serialized (asserted in debug
/// builds).
class VectorCollector : public ResultCollector {
 public:
  void Emit(uint32_t a_id, uint32_t b_id) override {
    check_.Enter();
    pairs_.emplace_back(a_id, b_id);
    check_.Exit();
  }
  const std::vector<std::pair<uint32_t, uint32_t>>& pairs() const {
    return pairs_;
  }
  std::vector<std::pair<uint32_t, uint32_t>>& mutable_pairs() { return pairs_; }

 private:
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
  SerialEmitCheck check_;
};

/// Common interface of every spatial join in this library (the filtering
/// phase of the paper: inputs are object MBRs, output is every intersecting
/// (a, b) pair, exactly once).
class SpatialJoinAlgorithm {
 public:
  virtual ~SpatialJoinAlgorithm() = default;

  /// Stable identifier, e.g. "touch", "pbsm", "s3".
  virtual std::string_view name() const = 0;

  /// Runs the join. Implementations must emit each intersecting pair exactly
  /// once and fill the JoinStats counters and phase timings.
  virtual JoinStats Join(std::span<const Box> a, std::span<const Box> b,
                         ResultCollector& out) = 0;
};

/// The paper's distance-join translation: enlarges every box of `a` by
/// `epsilon` and runs the spatial join, so the result is all pairs within L∞
/// distance epsilon of each other's MBRs. Enlargement cost is included in
/// total_seconds, mirroring the paper's methodology of timing everything
/// after load.
JoinStats DistanceJoin(SpatialJoinAlgorithm& algorithm, std::span<const Box> a,
                       std::span<const Box> b, float epsilon,
                       ResultCollector& out);

}  // namespace touch

#endif  // TOUCH_JOIN_ALGORITHM_H_
