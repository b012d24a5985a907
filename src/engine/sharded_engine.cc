#include "engine/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>

#include "geom/grid.h"
#include "util/format.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace touch {
namespace {

constexpr auto Format = StrFormat;  // local shorthand for the reports

}  // namespace

/// Everything one sharded join shares between its pair sinks and its
/// handle: the user sink (serialized behind a mutex), the owner maps the
/// dedup filter consults, and the per-pair handles the gather drains.
struct internal::GatherState {
  const QueryEngine* inner = nullptr;
  std::unique_ptr<ResultSink> user_sink;
  /// Owner maps and shard counts pinned at scatter time. Mutation batches
  /// publish fresh copy-on-write maps, so whatever lands mid-flight cannot
  /// disturb this gather's view.
  IdMapPtr shard_of_a;
  IdMapPtr shard_of_b;
  size_t shards_a = 0;
  size_t shards_b = 0;
  /// Merged result pairs (post-dedup), pairs dropped by the owner filter
  /// (boundary duplicates) and batches forwarded into user_sink. Each pair
  /// sink counts its own and adds them here once, in its OnComplete.
  std::atomic<uint64_t> merged_results{0};
  std::atomic<uint64_t> deduplicated{0};
  std::atomic<uint64_t> flushes{0};
  /// Serializes the pair sinks' batch flushes into user_sink. The sink
  /// pointer itself is not GUARDED_BY it: Get() legitimately reads
  /// user_sink un-mutexed once every pair handle has drained.
  Mutex sink_mutex;
  /// First exception a completion flush caught from user_sink->Emit, with
  /// its shard pair; Get() reports it as kError.
  std::string sink_error GUARDED_BY(sink_mutex);
  /// touch_sharded_sink_flush_seconds, resolved once at Submit.
  Histogram* flush_seconds = nullptr;
  BatchHandle handles;
  /// (shard_a, shard_b) of handles[k].
  std::vector<std::pair<int, int>> pair_ids;
  std::vector<std::pair<int, int>> pruned;
  size_t pairs_total = 0;
  /// Submit-time failure (bad handle, corrupt shard stats); when set, no
  /// pairs were scattered.
  std::string error;
  /// Wall clock of the whole scatter-gather, started at Submit.
  Timer wall;
  bool gathered = false;
  /// Observability wiring (the inner engine's; valid for the state's life).
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// The sharded request's trace identity: every shard pair's root span
  /// parents onto root_span_id, recorded by Get() once the outcome is known.
  uint64_t trace_id = 0;
  uint64_t root_span_id = 0;
  int64_t submit_ns = 0;
};

namespace {

using GatherStatePtr = std::shared_ptr<internal::GatherState>;

/// Survivors a pair sink buffers before forwarding them into the user sink
/// under one sink_mutex hold.
constexpr size_t kFlushPairs = 1024;

/// The per-pair sink the inner engine owns: remaps shard-local ids to
/// global ids, applies the owner dedup filter, and buffers survivors for
/// the shared user sink. Each instance is driven by exactly one worker
/// (the inner engine's per-request contract), so counts and the buffer are
/// plain members; only a flush is cross-pair and takes the mutex.
class PairSink : public ResultSink {
 public:
  PairSink(GatherStatePtr state, IdMapPtr to_global_a, IdMapPtr to_global_b,
           uint32_t index_a, uint32_t index_b)
      : state_(std::move(state)),
        to_global_a_(std::move(to_global_a)),
        to_global_b_(std::move(to_global_b)),
        index_a_(index_a),
        index_b_(index_b) {
    if (state_->user_sink != nullptr) buffer_.reserve(kFlushPairs);
  }

  void Emit(uint32_t local_a, uint32_t local_b) override {
    // A pair that executes against an inner snapshot newer than this
    // scatter can emit ids the pinned maps have never heard of; drop them
    // (the gather reports the dataset as of scatter time).
    if (local_a >= to_global_a_->size() || local_b >= to_global_b_->size()) {
      ++deduplicated_;
      return;
    }
    const uint32_t global_a = (*to_global_a_)[local_a];
    const uint32_t global_b = (*to_global_b_)[local_b];
    // Owner filter: a pair belongs to the shard pair that owns both
    // objects. The center-disjoint partitioner makes this vacuously true;
    // a replicating partitioner would emit boundary pairs from several
    // shard pairs, and exactly one — the owner — survives. It also drops
    // objects whose owner map entry went kNoShard (deleted mid-flight).
    if ((*state_->shard_of_a)[global_a] != index_a_ ||
        (*state_->shard_of_b)[global_b] != index_b_) {
      ++deduplicated_;
      return;
    }
    ++merged_;
    if (state_->user_sink == nullptr) return;
    buffer_.emplace_back(global_a, global_b);
    // A throw from the user sink fails this pair, as any Emit throw does.
    if (buffer_.size() == kFlushPairs) Flush();
  }

  /// The inner engine delivers on the pair's worker, after its last Emit
  /// and before the pair's future resolves, whatever the outcome — so
  /// Get() sees every count and every forwarded pair.
  void OnComplete(const JoinResult&) override {
    // The delivery swallows exceptions; catch here so Get() reports them.
    try {
      Flush();
    } catch (const std::exception& e) {
      RecordSinkError(e.what());
    } catch (...) {
      RecordSinkError("unknown error");
    }
    state_->merged_results.fetch_add(merged_, std::memory_order_relaxed);
    state_->deduplicated.fetch_add(deduplicated_, std::memory_order_relaxed);
    state_->flushes.fetch_add(flushes_, std::memory_order_relaxed);
  }

 private:
  /// Forwards the buffer under one sink_mutex hold. The buffer empties even
  /// when the user sink throws, so no pair is forwarded twice.
  void Flush() {
    if (buffer_.empty()) return;
    ++flushes_;
    const Timer wait_and_forward;
    try {
      const MutexLock lock(state_->sink_mutex);
      for (const auto& [global_a, global_b] : buffer_) {
        state_->user_sink->Emit(global_a, global_b);
      }
    } catch (...) {
      buffer_.clear();
      throw;
    }
    buffer_.clear();
    state_->flush_seconds->Observe(wait_and_forward.Seconds());
  }

  void RecordSinkError(const char* what) {
    const MutexLock lock(state_->sink_mutex);
    if (state_->sink_error.empty()) {
      state_->sink_error = Format("shard pair (%u, %u): sink flush failed: %s",
                                  index_a_, index_b_, what);
    }
  }

  GatherStatePtr state_;
  IdMapPtr to_global_a_;
  IdMapPtr to_global_b_;
  uint32_t index_a_;
  uint32_t index_b_;
  uint64_t merged_ = 0;
  uint64_t deduplicated_ = 0;
  uint64_t flushes_ = 0;
  std::vector<std::pair<uint32_t, uint32_t>> buffer_;
};

}  // namespace

// --- ShardedRequestHandle ---------------------------------------------------

size_t ShardedRequestHandle::pair_count() const {
  return state_ == nullptr ? 0 : state_->handles.size();
}

bool ShardedRequestHandle::Cancel() {
  // One call fans out to every shard pair's cancellation source.
  return state_ != nullptr && state_->handles.CancelAll() > 0;
}

ShardedJoinResult ShardedRequestHandle::Get() {
  ShardedJoinResult out;
  if (state_ == nullptr) {
    out.merged.status = RequestStatus::kError;
    out.merged.error = "invalid sharded request handle";
    return out;
  }
  internal::GatherState& state = *state_;
  if (state.gathered) {
    out.merged.status = RequestStatus::kError;
    out.merged.error = "sharded result already gathered";
    return out;
  }
  state.gathered = true;
  out.shard_pairs_total = state.pairs_total;
  out.pruned = state.pruned;
  // The gather span covers draining every pair future plus the merge.
  SpanScope gather_span(
      TraceContext{state.tracer, state.trace_id, state.root_span_id},
      "gather");

  JoinResult& merged = out.merged;
  if (!state.error.empty()) {
    merged.status = RequestStatus::kError;
    merged.error = state.error;
  }
  bool all_hit = !state.handles.empty();
  bool any_warm = false;
  bool any_cancelled = false;
  double slowest_pair_seconds = 0;
  double pair_seconds = 0;
  for (size_t k = 0; k < state.handles.size(); ++k) {
    JoinResult pair = state.handles[k].Get();
    if (pair.status == RequestStatus::kCancelled) any_cancelled = true;
    if (pair.status == RequestStatus::kError && merged.error.empty()) {
      merged.status = RequestStatus::kError;
      merged.error = Format("shard pair (%d, %d): ", state.pair_ids[k].first,
                            state.pair_ids[k].second) +
                     pair.error;
    }
    all_hit = all_hit && pair.index_cache_hit;
    any_warm = any_warm || pair.index_cache_hit || pair.partial_index_cache_hit;
    // Counters merge; phase seconds accumulate as summed work seconds.
    merged.stats.MergeCounters(pair.stats);
    merged.stats.build_seconds += pair.stats.build_seconds;
    merged.stats.assign_seconds += pair.stats.assign_seconds;
    merged.stats.join_seconds += pair.stats.join_seconds;
    merged.plan.expected_results += pair.plan.expected_results;
    slowest_pair_seconds =
        std::max(slowest_pair_seconds, pair.stats.total_seconds);
    pair_seconds += pair.stats.total_seconds;

    ShardPairReport report;
    report.shard_a = state.pair_ids[k].first;
    report.shard_b = state.pair_ids[k].second;
    report.stats = pair.stats;
    report.status = pair.status;
    report.index_cache_hit = pair.index_cache_hit;
    report.plan = std::move(pair.plan);
    out.pairs.push_back(std::move(report));
  }
  // The owner filter's counts are authoritative: MergeCounters summed the
  // pairs' pre-dedup result counters.
  merged.stats.results = state.merged_results.load(std::memory_order_relaxed);
  out.deduplicated = state.deduplicated.load(std::memory_order_relaxed);
  {
    const MutexLock lock(state.sink_mutex);
    if (merged.error.empty() && !state.sink_error.empty()) {
      merged.status = RequestStatus::kError;
      merged.error = state.sink_error;
    }
  }
  if (merged.status != RequestStatus::kError && any_cancelled) {
    merged.status = RequestStatus::kCancelled;
  }
  merged.index_cache_hit = all_hit;
  merged.partial_index_cache_hit = !all_hit && any_warm;
  merged.stats.total_seconds = state.wall.Seconds();
  merged.plan.algorithm = "sharded";
  merged.plan.rationale = Format(
      "scatter-gather over %zu x %zu shards: %zu pairs executed, %zu pruned "
      "by the epsilon-inflated MBR test, %llu boundary duplicates dropped",
      state.shards_a, state.shards_b,
      out.pairs.size(), out.pruned.size(),
      static_cast<unsigned long long>(out.deduplicated));
  if (state.inner != nullptr) out.cache = state.inner->cache_stats();
  merged.trace_id = state.trace_id;
  gather_span.AddAttr("merged_results",
                      std::to_string(merged.stats.results));
  gather_span.AddAttr("flushes", std::to_string(state.flushes.load(
                                     std::memory_order_relaxed)));
  gather_span.End();
  if (state.metrics != nullptr) {
    // Increment(0) still creates the series, so scrapes always see it.
    state.metrics->counter("touch_sharded_dedup_total")
        .Increment(out.deduplicated);
    // Slowest pair over the mean pair: 1 when the pool's last worker
    // waited for nobody.
    Histogram& skew = state.metrics->histogram("touch_sharded_pair_skew");
    if (pair_seconds > 0) {
      skew.Observe(slowest_pair_seconds /
                   (pair_seconds / static_cast<double>(out.pairs.size())));
    }
  }
  if (state.tracer != nullptr) {
    // The sharded request's root span, recorded now that the outcome is
    // known; scatter, per-pair roots and gather all hang under it.
    SpanRecord root;
    root.trace_id = state.trace_id;
    root.span_id = state.root_span_id;
    root.start_ns = state.submit_ns;
    root.duration_ns = TraceClockNs() - state.submit_ns;
    root.thread = CurrentThreadIndex();
    root.name = "sharded-request";
    root.attrs.emplace_back("status", RequestStatusName(merged.status));
    root.attrs.emplace_back("pairs", std::to_string(out.pairs.size()));
    root.attrs.emplace_back("pruned", std::to_string(out.pruned.size()));
    state.tracer->Record(std::move(root));
  }

  if (state.user_sink != nullptr) {
    state.user_sink->OnComplete(merged);
    state.user_sink.reset();
  }
  return out;
}

// --- ShardedQueryEngine -----------------------------------------------------

ShardedQueryEngine::ShardedQueryEngine(const EngineOptions& options)
    : shards_(std::max(1, options.shards)),
      planner_(options.planner),
      inner_(options) {}

DatasetHandle ShardedQueryEngine::RegisterDataset(std::string name,
                                                  Dataset boxes) {
  CheckApplicableBoxes(name, boxes);
  ShardedCatalog::Entry entry;
  entry.name = std::move(name);
  entry.next_global = static_cast<uint32_t>(boxes.size());
  InstallPartition(entry, boxes, {}, "");
  return catalog_.Add(std::move(entry));
}

void ShardedQueryEngine::InstallPartition(ShardedCatalog::Entry& entry,
                                          const Dataset& boxes,
                                          std::span<const uint32_t> gids,
                                          const std::string& epoch) {
  DatasetStats global_stats = ComputeDatasetStats(boxes);
  ShardPartition partition =
      PartitionIntoShards(boxes, global_stats, shards_);
  std::vector<uint32_t> shard_of(entry.next_global, kNoShard);
  std::vector<ShardedCatalog::Shard> shards;
  shards.reserve(partition.shards.size());
  for (size_t k = 0; k < partition.shards.size(); ++k) {
    DatasetShard& piece = partition.shards[k];
    // piece.to_global indexes `boxes`; translate to the preserved ids.
    for (uint32_t& id : piece.to_global) {
      if (!gids.empty()) id = gids[id];
      shard_of[id] = static_cast<uint32_t>(k);
    }
    // Per-shard stats are computed once and serialized — the bytes are what
    // central planning consumes, and what a remote shard would ship.
    DatasetStats stats = ComputeDatasetStats(piece.boxes);
    ShardedCatalog::Shard shard;
    shard.count = piece.boxes.size();
    shard.stats_bytes = SerializeDatasetStats(stats);
    shard.next_local = static_cast<uint32_t>(piece.boxes.size());
    shard.to_global = std::make_shared<const std::vector<uint32_t>>(
        std::move(piece.to_global));
    for (int axis = 0; axis < 3; ++axis) {
      shard.cell_lo[axis] = piece.cell_lo[axis];
      shard.cell_hi[axis] = piece.cell_hi[axis];
    }
    shard.base_mbr = piece.mbr;
    // Inner shard datasets of a replaced partition stay registered (the
    // inner catalog has no unregister); the epoch suffix keeps names unique.
    shard.engine_handle = inner_.RegisterDataset(
        entry.name + "#" + std::to_string(k) + epoch, std::move(piece.boxes),
        std::move(stats));
    shards.push_back(std::move(shard));
  }
  // The routing grid is frozen per partition epoch: mutations must route
  // with the exact (domain, resolution) the assignment pass mapped centers
  // with, not whatever the stats drift to later.
  entry.route_domain = global_stats.extent;
  entry.route_resolution = std::max(1, global_stats.histogram_resolution);
  entry.global_stats = std::move(global_stats);
  entry.shards = std::move(shards);
  entry.shard_of =
      std::make_shared<const std::vector<uint32_t>>(std::move(shard_of));
  // The inverse id maps are built by the next mutation batch.
  entry.mutable_ready = false;
}

ShardedRequestHandle ShardedQueryEngine::Submit(
    const JoinRequest& request, std::unique_ptr<ResultSink> sink) {
  auto state = std::make_shared<internal::GatherState>();
  state->inner = &inner_;
  state->user_sink = std::move(sink);
  state->tracer = inner_.tracer();
  state->metrics = &inner_.metrics();
  state->flush_seconds =
      &state->metrics->histogram("touch_sharded_sink_flush_seconds");
  state->submit_ns = TraceClockNs();
  if (state->tracer != nullptr) {
    state->trace_id = state->tracer->NewTraceId();
    state->root_span_id = state->tracer->NewSpanId();
  }
  state->metrics->counter("touch_sharded_requests_total").Increment();
  ShardedRequestHandle handle;
  handle.state_ = state;
  if (request.continuous) {
    // Shard pairs would each need their own subscription and a delta remap
    // to global ids; until that exists, refuse rather than run one-shot.
    state->error = "continuous joins are not supported by the sharded engine";
    return handle;
  }
  if (!catalog_.Contains(request.a) || !catalog_.Contains(request.b)) {
    state->error =
        Format("invalid dataset handle (sharded catalog has %zu datasets)",
               catalog_.size());
    return handle;
  }
  // The scatter serializes against mutation batches: shard stats, id maps
  // and engine handles are read under the catalog mutex, and the COW maps
  // pinned here keep this gather consistent even if a batch (or a whole
  // repartition) lands before the pairs finish executing.
  const MutexLock catalog_lock(catalog_mutex_);
  const ShardedCatalog::Entry& entry_a = catalog_.entry(request.a);
  const ShardedCatalog::Entry& entry_b = catalog_.entry(request.b);
  state->shard_of_a = entry_a.shard_of;
  state->shard_of_b = entry_b.shard_of;
  state->shards_a = entry_a.shards.size();
  state->shards_b = entry_b.shards.size();
  state->pairs_total = entry_a.shards.size() * entry_b.shards.size();

  // Central planning consumes the serialized stats — deserialize each
  // shard's bytes once per request, exactly as a coordinator would with
  // stats that arrived over the wire.
  const auto deserialize_all =
      [&](const ShardedCatalog::Entry& entry,
          std::vector<DatasetStats>* stats) -> bool {
    stats->resize(entry.shards.size());
    for (size_t k = 0; k < entry.shards.size(); ++k) {
      if (!DeserializeDatasetStats(entry.shards[k].stats_bytes,
                                   &(*stats)[k])) {
        state->error = Format("corrupt serialized stats for shard %zu of %s",
                              k, entry.name.c_str());
        return false;
      }
    }
    return true;
  };
  std::vector<DatasetStats> stats_a;
  std::vector<DatasetStats> stats_b;
  if (!deserialize_all(entry_a, &stats_a) ||
      !deserialize_all(entry_b, &stats_b)) {
    return handle;
  }

  std::optional<CalibrationSnapshot> snapshot;
  if (inner_.options().calibration.enabled) {
    snapshot = inner_.calibration_snapshot();
  }

  // The scatter span covers pruning, central planning and submission of
  // every pair; each pair's own "request" root parents onto the sharded
  // root, so the exported tree reads sharded-request → scatter/plan,
  // request (per pair) → build/execute, gather.
  SpanScope scatter_span(
      TraceContext{state->tracer, state->trace_id, state->root_span_id},
      "scatter");
  for (size_t i = 0; i < entry_a.shards.size(); ++i) {
    for (size_t j = 0; j < entry_b.shards.size(); ++j) {
      if (!Planner::PairMayProduceResults(stats_a[i], stats_b[j],
                                          request.epsilon)) {
        state->pruned.emplace_back(static_cast<int>(i), static_cast<int>(j));
        continue;
      }
      SpanScope plan_span(scatter_span.context(), "plan");
      plan_span.AddAttr("shard_a", std::to_string(i));
      plan_span.AddAttr("shard_b", std::to_string(j));
      JoinPlan plan =
          planner_.Plan(stats_a[i], stats_b[j], request.epsilon,
                        snapshot.has_value() ? &*snapshot : nullptr);
      plan_span.AddAttr("algorithm", plan.algorithm);
      plan_span.End();
      JoinRequest pair_request;
      pair_request.a = entry_a.shards[i].engine_handle;
      pair_request.b = entry_b.shards[j].engine_handle;
      pair_request.epsilon = request.epsilon;
      pair_request.deadline = request.deadline;  // deadlines fan out too
      // The pair joins this request's trace instead of starting its own.
      pair_request.trace_id = state->trace_id;
      pair_request.trace_parent_span = state->root_span_id;
      state->pair_ids.emplace_back(static_cast<int>(i), static_cast<int>(j));
      state->handles.requests().push_back(inner_.SubmitPlanned(
          std::move(plan), pair_request,
          std::make_unique<PairSink>(state, entry_a.shards[i].to_global,
                                     entry_b.shards[j].to_global,
                                     static_cast<uint32_t>(i),
                                     static_cast<uint32_t>(j))));
    }
  }
  scatter_span.AddAttr("executed", std::to_string(state->handles.size()));
  scatter_span.AddAttr("pruned", std::to_string(state->pruned.size()));
  scatter_span.End();
  state->metrics->counter("touch_sharded_pairs_executed_total")
      .Increment(state->handles.size());
  state->metrics->counter("touch_sharded_pairs_pruned_total")
      .Increment(state->pruned.size());
  return handle;
}

namespace {

/// The partition's center-cell rule, replayed one box at a time: map the
/// box center onto the entry's frozen routing grid, then find the shard
/// whose slab [cell_lo, cell_hi) contains the cell. Slabs tile the grid
/// (SlabOf assigns every cell to exactly one slab per axis; empty slabs
/// are empty half-open ranges that contain nothing), and GridMapper clamps
/// out-of-domain centers, so exactly one shard matches — including for
/// inserts that land beyond the registration extent.
uint32_t RouteToShard(const ShardedCatalog::Entry& entry, const Box& box) {
  const GridMapper grid(entry.route_domain, entry.route_resolution);
  const CellCoord cell = grid.CellOf(box.Center());
  for (size_t k = 0; k < entry.shards.size(); ++k) {
    const ShardedCatalog::Shard& shard = entry.shards[k];
    if (cell.x >= shard.cell_lo[0] && cell.x < shard.cell_hi[0] &&
        cell.y >= shard.cell_lo[1] && cell.y < shard.cell_hi[1] &&
        cell.z >= shard.cell_lo[2] && cell.z < shard.cell_hi[2]) {
      return static_cast<uint32_t>(k);
    }
  }
  return 0;  // unreachable: the slabs tile the (clamped) grid
}

}  // namespace

uint64_t ShardedQueryEngine::ApplyMutations(DatasetHandle dataset,
                                            std::span<const Mutation> mutations) {
  if (!catalog_.Contains(dataset)) return 0;
  const MutexLock lock(catalog_mutex_);
  ShardedCatalog::Entry& entry = catalog_.mutable_entry(dataset);
  const size_t num_shards = entry.shards.size();
  // First batch for this entry: materialize the inverse id maps the
  // delete/update paths need (registration only builds the forward maps).
  if (!entry.mutable_ready) {
    for (ShardedCatalog::Shard& shard : entry.shards) {
      shard.local_of.reserve(shard.to_global->size());
      for (uint32_t local = 0;
           local < static_cast<uint32_t>(shard.to_global->size()); ++local) {
        shard.local_of.emplace((*shard.to_global)[local], local);
      }
    }
    entry.mutable_ready = true;
  }

  // Working copies of the COW maps; published wholesale at the end so
  // in-flight gathers keep the versions they pinned.
  std::vector<uint32_t> shard_of = *entry.shard_of;
  std::vector<std::vector<uint32_t>> to_global(num_shards);
  std::vector<bool> touched(num_shards, false);
  const auto working_map = [&](uint32_t s) -> std::vector<uint32_t>& {
    if (!touched[s]) {
      to_global[s] = *entry.shards[s].to_global;
      touched[s] = true;
    }
    return to_global[s];
  };
  const auto live = [&](uint32_t gid) {
    return gid < shard_of.size() && shard_of[gid] != kNoShard;
  };

  // Route each mutation to its owning shard, translating global ids to
  // shard-local ones. Inserts assign global ids in stream order from
  // next_global (which starts at the registration count), so a sharded
  // engine fed the same mutation stream as an unsharded one assigns
  // identical ids — the property the shards=1 vs shards=4 identity checks
  // lean on.
  std::vector<std::vector<Mutation>> batches(num_shards);
  const auto route_insert = [&](uint32_t gid, const Box& box) {
    const uint32_t s = RouteToShard(entry, box);
    ShardedCatalog::Shard& shard = entry.shards[s];
    const uint32_t local = shard.next_local++;
    batches[s].push_back(Mutation{MutationKind::kInsert, local, box});
    std::vector<uint32_t>& map = working_map(s);
    if (map.size() <= local) map.resize(local + 1, kInvalidObjectId);
    map[local] = gid;
    shard.local_of.emplace(gid, local);
    if (shard_of.size() <= gid) shard_of.resize(gid + 1, kNoShard);
    shard_of[gid] = s;
  };
  for (const Mutation& m : mutations) {
    switch (m.kind) {
      case MutationKind::kInsert: {
        if (!IsApplicableBox(m.box)) break;  // mirror DatasetCatalog
        uint32_t gid = m.id;
        if (gid == kInvalidObjectId) {
          gid = entry.next_global++;
        } else {
          if (live(gid)) break;  // mirror DatasetCatalog: live-id insert no-ops
          if (gid >= entry.next_global) entry.next_global = gid + 1;
        }
        route_insert(gid, m.box);
        break;
      }
      case MutationKind::kDelete: {
        if (!live(m.id)) break;
        const uint32_t s = shard_of[m.id];
        ShardedCatalog::Shard& shard = entry.shards[s];
        const uint32_t local = shard.local_of.at(m.id);
        batches[s].push_back(Mutation{MutationKind::kDelete, local, Box{}});
        shard.local_of.erase(m.id);
        // The forward map keeps the stale slot — it is only read for ids
        // the inner engine actually emits, and deleted ids never are.
        shard_of[m.id] = kNoShard;
        break;
      }
      case MutationKind::kUpdate: {
        if (!live(m.id) || !IsApplicableBox(m.box)) break;
        const uint32_t s_old = shard_of[m.id];
        const uint32_t s_new = RouteToShard(entry, m.box);
        ShardedCatalog::Shard& old_shard = entry.shards[s_old];
        const uint32_t local = old_shard.local_of.at(m.id);
        if (s_new == s_old) {
          batches[s_old].push_back(Mutation{MutationKind::kUpdate, local, m.box});
        } else {
          // The center crossed a slab boundary: delete from the old owner,
          // insert into the new one, same global id.
          batches[s_old].push_back(Mutation{MutationKind::kDelete, local, Box{}});
          old_shard.local_of.erase(m.id);
          shard_of[m.id] = kNoShard;
          route_insert(m.id, m.box);
        }
        break;
      }
    }
  }

  // Run the per-shard sub-batches through the inner engine (stats deltas,
  // versioned cache invalidation and continuous-join delta probes all
  // happen there), then re-serialize shard stats so pair pruning keeps
  // seeing the post-mutation MBRs.
  for (size_t s = 0; s < num_shards; ++s) {
    if (batches[s].empty()) continue;
    inner_.ApplyMutations(entry.shards[s].engine_handle, batches[s]);
    const DatasetSnapshotPtr snap =
        inner_.catalog().snapshot(entry.shards[s].engine_handle);
    entry.shards[s].stats_bytes = SerializeDatasetStats(snap->stats);
    entry.shards[s].count = snap->stats.count;
  }

  // Publish the new id maps (copy-on-write swap) and bump the version.
  entry.shard_of =
      std::make_shared<const std::vector<uint32_t>>(std::move(shard_of));
  for (size_t s = 0; s < num_shards; ++s) {
    if (touched[s]) {
      entry.shards[s].to_global = std::make_shared<const std::vector<uint32_t>>(
          std::move(to_global[s]));
    }
  }
  ++entry.version;

  // Drift check: once any mutated shard's MBR margin outgrows its
  // partition-time margin by the configured factor, the slabs no longer
  // describe the data and the whole dataset is re-partitioned.
  const double drift = inner_.options().shard_repartition_drift;
  if (drift > 0) {
    for (size_t s = 0; s < num_shards; ++s) {
      if (batches[s].empty()) continue;
      const Box& base = entry.shards[s].base_mbr;
      if (!(base.lo.x <= base.hi.x)) continue;  // empty at partition time
      const double base_margin = base.Margin();
      if (base_margin <= 0) continue;
      const DatasetSnapshotPtr snap =
          inner_.catalog().snapshot(entry.shards[s].engine_handle);
      if (snap->stats.count > 0 &&
          snap->stats.extent.Margin() > drift * base_margin) {
        RepartitionLocked(entry);
        inner_.metrics().counter("touch_shard_repartitions_total").Increment();
        break;
      }
    }
  }
  return entry.version;
}

void ShardedQueryEngine::RepartitionLocked(ShardedCatalog::Entry& entry) {
  // Gather the live geometry — with its preserved global ids — out of the
  // inner shard snapshots.
  Dataset all_boxes;
  std::vector<uint32_t> all_gids;
  for (const ShardedCatalog::Shard& shard : entry.shards) {
    const DatasetSnapshotPtr snap =
        inner_.catalog().snapshot(shard.engine_handle);
    const std::vector<uint32_t>& map = *shard.to_global;
    for (size_t slot = 0; slot < snap->boxes.size(); ++slot) {
      all_boxes.push_back(snap->boxes[slot]);
      all_gids.push_back(map[snap->id_of(static_cast<uint32_t>(slot))]);
    }
  }
  InstallPartition(entry, all_boxes, all_gids,
                   "@v" + std::to_string(entry.version));
}

ShardedJoinResult ShardedQueryEngine::Execute(const JoinRequest& request,
                                              ResultCollector& out) {
  return Submit(request, std::make_unique<ForwardingSink>(out)).Get();
}

}  // namespace touch
