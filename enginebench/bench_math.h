#ifndef TOUCH_ENGINEBENCH_BENCH_MATH_H_
#define TOUCH_ENGINEBENCH_BENCH_MATH_H_

// The benchmark's own arithmetic, kept free of engine dependencies so
// selftest.cc can check it in isolation: percentile and tail selection,
// span self time, open-loop latency charged from the due time, and the
// order-independent checksum fold over result pairs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace enginebench {

/// Linear-interpolated percentile (q in [0, 100]) of `values`; 0 for an
/// empty sample. Takes a copy because it sorts.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Samples a tail must have beyond it.
inline constexpr size_t kTailBeyond = 10;

/// The tail percentile reported for `samples` samples: the highest
/// percentile with at least kTailBeyond samples above it, 100 * (1 - 10 /
/// samples). It moves smoothly with the sample count, so a run that
/// completes a few more or fewer operations than the last does not jump to
/// another rung of a ladder. Never below the median: with fewer than 20
/// samples the tail is the median (the caller records the sample count, so
/// a short run shows).
inline double TailPercentile(size_t samples) {
  if (samples == 0) return 50.0;
  const double q = 100.0 * (1.0 - static_cast<double>(kTailBeyond) /
                                      static_cast<double>(samples));
  return std::max(50.0, q);
}

/// Half-open time interval [start, end), nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// A span's self time: its duration minus the part of it that the union of
/// its children covers (children are clipped to the parent, and overlapping
/// children — parallel shard pairs — count once).
inline int64_t SelfTimeNs(Interval parent, std::vector<Interval> children) {
  const int64_t duration = std::max<int64_t>(0, parent.end - parent.start);
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::erase_if(children, [](const Interval& c) { return c.end <= c.start; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return duration - covered;
}

/// One open-loop operation's charge: how late it started and its latency.
struct OpenLoopCharge {
  int64_t late_ns = 0;     // start - due
  int64_t latency_ns = 0;  // done - due
};

/// Open-loop schedule: operation k is due at start + k * period, whether or
/// not earlier operations have finished. A sequential generator starts each
/// operation at max(due, previous done) and is charged from the due time,
/// so a stalled operation delays — and is charged to — every later one that
/// had to wait for it (no coordinated omission).
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t period_ns = 1;

  int64_t Due(uint64_t k) const {
    return start_ns + static_cast<int64_t>(k) * period_ns;
  }
  /// Operations due strictly before `end_ns` (the run's fixed operation
  /// count, independent of how fast the system keeps up).
  uint64_t CountBefore(int64_t end_ns) const {
    if (end_ns <= start_ns) return 0;
    return static_cast<uint64_t>((end_ns - start_ns + period_ns - 1) /
                                 period_ns);
  }
  OpenLoopCharge Charge(uint64_t k, int64_t started_ns, int64_t done_ns) const {
    return {started_ns - Due(k), done_ns - Due(k)};
  }
};

/// splitmix64 finalizer: a bijective 64-bit mix.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-independent fold over (a, b) result pairs: a count plus the
/// wrapping sum of each pair's mixed key. Addition commutes, so any emission
/// order (parallel shards, cell order, delta order) folds to the same value,
/// and Remove exactly undoes Add — which lets a continuous join's
/// kAdded/kRemoved delta stream fold to the checksum of its current set.
struct PairChecksum {
  int64_t count = 0;
  uint64_t sum = 0;

  static uint64_t Key(uint32_t a, uint32_t b) {
    return Mix64((static_cast<uint64_t>(a) << 32) | b);
  }
  void Add(uint32_t a, uint32_t b) {
    ++count;
    sum += Key(a, b);
  }
  void Remove(uint32_t a, uint32_t b) {
    --count;
    sum -= Key(a, b);
  }
  bool operator==(const PairChecksum& other) const {
    return count == other.count && sum == other.sum;
  }
};

}  // namespace enginebench

#endif  // TOUCH_ENGINEBENCH_BENCH_MATH_H_
