#ifndef TOUCH_ENGINE_SHARDED_ENGINE_H_
#define TOUCH_ENGINE_SHARDED_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/shard.h"
#include "util/thread_annotations.h"

namespace touch {

namespace internal {
struct GatherState;
}  // namespace internal

/// One executed shard pair of a sharded join: which shards met, the plan
/// they were scattered with (stats-only Planner::Plan over the shards'
/// *deserialized* stats), and what the execution measured. Pruned pairs
/// never appear here — see ShardedJoinResult::pruned.
struct ShardPairReport {
  int shard_a = 0;
  int shard_b = 0;
  JoinPlan plan;
  JoinStats stats;
  RequestStatus status = RequestStatus::kOk;
  bool index_cache_hit = false;
};

/// Outcome of one sharded scatter-gather join.
///
/// `merged` is the single-JoinResult view downstream code consumes:
/// counters aggregate every executed pair (results counted *post-dedup*),
/// build/assign/join seconds are summed work seconds across pairs (they
/// overlap on the pool, so they exceed wall clock under parallelism),
/// total_seconds is the scatter-gather wall clock, and the plan's
/// algorithm is "sharded" with a rationale summarizing the fan-out.
/// `merged.status` is kError if any pair failed, else kCancelled if any
/// pair was cancelled, else kOk.
struct ShardedJoinResult {
  JoinResult merged;
  /// Executed pairs, in scatter order.
  std::vector<ShardPairReport> pairs;
  /// (shard_a, shard_b) pairs pruned by the epsilon-inflated MBR test.
  std::vector<std::pair<int, int>> pruned;
  /// All considered pairs: pairs.size() + pruned.size().
  size_t shard_pairs_total = 0;
  /// Result pairs dropped by the merge's owner filter. Structurally 0 with
  /// the center-disjoint partitioner; becomes load-bearing the moment a
  /// partitioner replicates boundary objects.
  uint64_t deduplicated = 0;
  /// Inner index-cache snapshot taken at gather time.
  IndexCache::Stats cache;
};

/// Handle of one sharded join: the fan-out of per-shard-pair
/// RequestHandles behind a single gather point.
///
/// Cancellation fans out: Cancel() forwards to every shard pair's
/// RequestHandle — queued pairs complete immediately without burning a
/// worker, executing pairs stop cooperatively — so one call abandons the
/// whole scatter. Get() performs the gather (blocks until every pair
/// completed, merges, runs the user sink's OnComplete) and may be called
/// once; it is not safe to call concurrently with itself, though Cancel()
/// from another thread is fine.
class ShardedRequestHandle {
 public:
  ShardedRequestHandle() = default;
  ShardedRequestHandle(ShardedRequestHandle&&) noexcept = default;
  ShardedRequestHandle& operator=(ShardedRequestHandle&&) noexcept = default;
  ShardedRequestHandle(const ShardedRequestHandle&) = delete;
  ShardedRequestHandle& operator=(const ShardedRequestHandle&) = delete;

  bool valid() const { return state_ != nullptr; }

  /// Shard pairs actually scattered (survived pruning).
  size_t pair_count() const;

  /// Requests cancellation of every outstanding shard pair; returns true
  /// when at least one pair was newly cancelled.
  bool Cancel();

  /// Gathers: blocks for every pair, merges streams and telemetry, runs
  /// the user sink's OnComplete with the merged result. One-shot.
  ShardedJoinResult Get();

 private:
  friend class ShardedQueryEngine;
  std::shared_ptr<internal::GatherState> state_;
};

/// The sharded scatter-gather engine: a QueryEngine whose datasets are
/// spatially partitioned into EngineOptions::shards pieces at registration
/// (STR slabs over the registration histogram — see shard.h) and whose
/// joins fan out over shard pairs.
///
/// One join request becomes up to K_a * K_b shard-pair requests. Each pair
/// is planned *centrally* with the stats-only Planner::Plan over the
/// shards' serialized stats (the same bytes a remote shard would send),
/// pairs whose epsilon-inflated MBRs cannot meet are pruned before any
/// work is spent, and the survivors scatter onto the inner engine's
/// existing WorkerPool via SubmitPlanned — inheriting its index cache,
/// lifecycle management and cooperative cancellation per pair. The gather
/// remaps shard-local ids to global ids, deduplicates through the owner
/// filter, and merges everything into one JoinResult.
///
/// This subsystem is single-process: shards are in-memory datasets of one
/// inner engine. It is deliberately shaped so that multi-process
/// distribution is a transport problem — stats already travel as bytes,
/// planning never touches shard geometry, and the gather only consumes id
/// streams. See docs/DEPLOYMENT.md.
///
/// Threading contract: RegisterDataset must not race with queries (same as
/// QueryEngine); Submit and Execute may run concurrently.
class ShardedQueryEngine {
 public:
  /// `options.shards` (clamped to >= 1) shards per dataset; everything
  /// else configures the inner QueryEngine.
  explicit ShardedQueryEngine(const EngineOptions& options = {});

  /// Partitions `boxes` into shards, registers each shard with the inner
  /// engine, serializes per-shard stats into the sharded catalog, and
  /// returns the logical dataset's handle (valid for Submit/Execute on
  /// *this* engine, not the inner one). Throws std::invalid_argument,
  /// before partitioning, if a box has a NaN coordinate or lo > hi
  /// (CheckApplicableBoxes).
  DatasetHandle RegisterDataset(std::string name, Dataset boxes);

  /// Applies one mutation batch to a sharded dataset in *global* id space.
  /// Each mutation is routed to its owning shard by the partition's
  /// center-cell rule (an update whose center crosses a slab boundary
  /// becomes a delete + an explicit-id insert on the new owner, preserving
  /// the global id), the per-shard sub-batches run through the inner
  /// engine's ApplyMutations (stats, versioning, cache invalidation and
  /// continuous joins all behave as documented there), per-shard
  /// stats_bytes are re-serialized so pair pruning stays sound, and a
  /// shard whose MBR margin drifted past
  /// EngineOptions::shard_repartition_drift times its partition-time
  /// margin triggers a full re-partition from live geometry
  /// (`touch_shard_repartitions_total`). Batches serialize against each
  /// other and against Submit; gathers already in flight keep the id maps
  /// they pinned at scatter time. Returns the dataset's new version.
  uint64_t ApplyMutations(DatasetHandle dataset,
                          std::span<const Mutation> mutations);

  /// Scatters the request across shard pairs (see class comment). `sink`
  /// (optional) receives merged, deduplicated (a, b) pairs in *global* id
  /// space, in per-pair bursts of up to 1024 while the pairs run; Emit
  /// calls never overlap. An exception from its Emit fails the request
  /// (kError naming the shard pair). Its OnComplete runs inside the
  /// handle's Get(). A `continuous` request scatters nothing and gathers as
  /// kError: sharded standing joins are not supported.
  ShardedRequestHandle Submit(const JoinRequest& request,
                              std::unique_ptr<ResultSink> sink = nullptr);

  /// Synchronous wrapper: Submit + Get, emitting merged pairs into `out`.
  ShardedJoinResult Execute(const JoinRequest& request, ResultCollector& out);

  const ShardedCatalog& catalog() const { return catalog_; }

  /// The inner engine (cache stats, calibration feedback, worker pool).
  QueryEngine& engine() { return inner_; }
  const QueryEngine& engine() const { return inner_; }

  int shards() const { return shards_; }

 private:
  /// Rebuilds `entry`'s partition from the live geometry of its shards:
  /// new slabs over fresh global stats, new inner shard datasets, new id
  /// maps (global ids preserved). The old inner shard datasets stay
  /// registered but unreferenced — the inner catalog has no unregister —
  /// so their cache artifacts age out through normal eviction.
  void RepartitionLocked(ShardedCatalog::Entry& entry)
      REQUIRES(catalog_mutex_);
  /// Partitions `boxes` into shards_ pieces and installs them as `entry`'s
  /// partition: per-shard stats, inner datasets named `<name>#<k><epoch>`,
  /// id maps, owner map and routing grid. `gids[i]` is the global id of
  /// boxes[i] (empty: i itself). Shared by registration and
  /// re-partitioning; `entry` is either not yet published or guarded by
  /// catalog_mutex_.
  void InstallPartition(ShardedCatalog::Entry& entry, const Dataset& boxes,
                        std::span<const uint32_t> gids,
                        const std::string& epoch);

  int shards_;
  Planner planner_;
  QueryEngine inner_;
  /// Serializes mutation batches against each other and against Submit's
  /// scatter (which pins the id maps and reads shard stats under it).
  /// Pair execution and gathers never take it.
  mutable Mutex catalog_mutex_;
  ShardedCatalog catalog_;
};

}  // namespace touch

#endif  // TOUCH_ENGINE_SHARDED_ENGINE_H_
