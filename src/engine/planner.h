#ifndef TOUCH_ENGINE_PLANNER_H_
#define TOUCH_ENGINE_PLANNER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/touch.h"
#include "engine/catalog.h"

namespace touch {

class CalibrationSnapshot;

/// One join the engine is asked to run: two registered datasets and the
/// distance threshold (0 = plain intersection join).
struct JoinRequest {
  DatasetHandle a = 0;
  DatasetHandle b = 0;
  float epsilon = 0.0f;
  /// Engine-enforced deadline (steady clock; default epoch = none). A
  /// submitted request still running past it is stopped at the next phase
  /// boundary or cooperative kernel poll and completes as kCancelled —
  /// even when the caller has abandoned the handle, so a timeout holds
  /// without anyone waiting on the future. The sharded engine forwards the
  /// deadline into every shard-pair request.
  std::chrono::steady_clock::time_point deadline{};
  /// Trace correlation (0 = allocate fresh): a caller that already owns a
  /// trace — the sharded engine scattering shard-pair requests — sets both
  /// so the pair's spans join the parent tree instead of starting their own.
  /// Ignored when the engine has no tracer.
  uint64_t trace_id = 0;
  uint64_t trace_parent_span = 0;
  /// Standing query: instead of one batch result, the request's sink
  /// receives the current pair set as kAdded deltas at submit time and a
  /// kAdded/kRemoved delta stream after every later mutation batch of
  /// either dataset, until RequestHandle::Cancel unsubscribes it. Requires
  /// a sink and two *distinct* datasets. See docs/DYNAMIC.md.
  bool continuous = false;
};

/// An executable, explainable plan for one join request. `algorithm` is a
/// MakeAlgorithm name ("touch", "ps", "pbsm-<res>", ...); `rationale` records
/// every decision the planner took, so a plan can always answer "why this?".
struct JoinPlan {
  std::string algorithm = "touch";
  /// Index-building side for touch / inl: true builds over dataset A. The
  /// executor flips emitted pairs back to (a, b) order when false.
  bool build_on_a = true;
  /// Fully resolved TOUCH configuration (meaningful when algorithm=="touch").
  TouchOptions touch;
  /// Planner's cost-model outputs (0 when planning skipped estimation).
  double expected_results = 0;
  double expected_selectivity = 0;
  /// True when measured-run calibration decided (or confirmed) the
  /// algorithm. `static_algorithm` then records what the static rules would
  /// have chosen and `predicted_seconds` the winning cost prediction, so the
  /// plan report can show the before/after.
  bool calibrated = false;
  std::string static_algorithm;
  double predicted_seconds = 0;
  std::string rationale;

  /// One line of settings plus the rationale, e.g. for the CLI's --algo=auto.
  std::string ToString() const;
};

/// Thresholds of the planner's decision rules. Defaults are calibrated
/// against the paper's measurements (sections 6.3-6.5): sort-based and
/// partition-based joins only pay off once inputs outgrow the quadratic /
/// sort regime, PBSM wins on uniform data, TOUCH on skewed or large data.
/// With engine calibration enabled, measured runs override the soft rules
/// (skew/size crossovers) once enough evidence accumulates; the hard
/// constraints (memory budget, PBSM object ceiling) always hold.
struct PlannerOptions {
  /// max(|A|, |B|) at or below this -> nested loop (no setup cost at all).
  size_t nested_loop_max = 64;
  /// max(|A|, |B|) at or below this -> plane sweep (sort only, no index).
  size_t plane_sweep_max = 2000;
  /// Ceiling on the auxiliary memory a plan may spend, in bytes (0 = no
  /// limit). When the partitioning algorithms' estimated footprint exceeds
  /// it, the planner falls back to the index-light INL (extreme cardinality
  /// asymmetry) or the sort-only plane sweep.
  size_t memory_budget_bytes = 0;
  /// Under a violated memory budget: |larger| / |smaller| at or above this
  /// -> indexed nested loop with the tree on the smaller side (its footprint
  /// is just that small tree; measured ~1000x below TOUCH/PBSM grids).
  double inl_asymmetry = 64.0;
  /// Both datasets' histogram skew at or below this counts as uniform ->
  /// PBSM eligible (space-oriented partitioning is only competitive without
  /// hotspots, paper Figures 8-11). Checked before the INL asymmetry rule.
  double pbsm_skew_max = 3.0;
  /// PBSM is skipped beyond this many total objects (replication memory).
  size_t pbsm_max_objects = 400000;
  /// Target objects per TOUCH leaf; sets the partition count.
  size_t touch_leaf_target = 96;
};

/// Cost-based planner: stats in, explainable plan out. Stateless apart from
/// its options; safe to share across threads.
///
/// Planning consumes only registration-time DatasetStats (pair-combined
/// histograms, extents, cardinalities) — never the datasets' geometry — so a
/// plan costs O(kHistogramResolution^3) regardless of dataset sizes. When a
/// CalibrationSnapshot is supplied (the engine's measured-run feedback), the
/// planner predicts each eligible candidate's cold cost from the fitted
/// models and overrides the static choice once at least two families —
/// including the statically chosen one — have enough measurements; the
/// rationale records the before/after.
class Planner {
 public:
  explicit Planner(const PlannerOptions& options = {}) : options_(options) {}

  /// Chooses algorithm, join order, partition count and grid resolution for
  /// `request`. Both handles must be valid in `catalog`.
  JoinPlan Plan(const DatasetCatalog& catalog, const JoinRequest& request,
                const CalibrationSnapshot* calibration = nullptr) const;

  /// Stats-only core of Plan: planning needs no raw geometry, and this
  /// overload proves it by construction (it cannot reach any boxes). Also
  /// the entry point for stats that arrived without geometry, e.g. from a
  /// remote catalog shard via DeserializeDatasetStats.
  JoinPlan Plan(const DatasetStats& stats_a, const DatasetStats& stats_b,
                float epsilon,
                const CalibrationSnapshot* calibration = nullptr) const;

  /// Shard-pair pruning hook: false when two partitions' stats prove the
  /// epsilon-distance join between them is empty — either side has no
  /// objects, or A's extent inflated by epsilon misses B's extent. The
  /// sharded engine calls this for every shard pair before planning it, so
  /// non-overlapping pairs cost one box test instead of a plan + execution.
  static bool PairMayProduceResults(const DatasetStats& stats_a,
                                    const DatasetStats& stats_b,
                                    float epsilon);

  const PlannerOptions& options() const { return options_; }

 private:
  PlannerOptions options_;
};

}  // namespace touch

#endif  // TOUCH_ENGINE_PLANNER_H_
