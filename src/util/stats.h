#ifndef TOUCH_UTIL_STATS_H_
#define TOUCH_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace touch {

/// Metrics produced by one spatial-join execution.
///
/// `comparisons` is the paper's implementation-independent cost metric: the
/// number of object-object MBR intersection tests performed. Tests between
/// index nodes (R-tree traversal, TOUCH tree descent) are tracked separately
/// in `node_comparisons` and never mixed into `comparisons`.
struct JoinStats {
  /// Object-object MBR intersection tests (the paper's "comparisons").
  uint64_t comparisons = 0;
  /// Index-node-level MBR tests (traversals, assignment descent).
  uint64_t node_comparisons = 0;
  /// Result pairs emitted.
  uint64_t results = 0;
  /// Objects of the probe dataset discarded by filtering (TOUCH / S3).
  uint64_t filtered = 0;
  /// Peak analytic footprint of the algorithm's auxiliary structures, bytes.
  size_t memory_bytes = 0;

  /// Per-phase wall-clock seconds. Phases not applicable to an algorithm
  /// stay zero; total_seconds always covers the whole join (including any
  /// index construction, as in the paper's methodology).
  double build_seconds = 0;
  double assign_seconds = 0;
  double join_seconds = 0;
  double total_seconds = 0;
  /// Wall-clock seconds until the first result pair was emitted; 0 when the
  /// join produced no results. Set by the engine; library `Join` calls
  /// leave it 0.
  double first_result_seconds = 0;

  /// Result selectivity |R| / (|A|*|B|) given the input cardinalities.
  double Selectivity(size_t size_a, size_t size_b) const;

  /// Adds the counters (not the timings) of `other` into this.
  void MergeCounters(const JoinStats& other);

  /// Human-readable one-line summary, e.g. for examples and debugging.
  std::string ToString() const;
};

}  // namespace touch

#endif  // TOUCH_UTIL_STATS_H_
