#ifndef TOUCH_ENGINE_ENGINE_H_
#define TOUCH_ENGINE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/calibration.h"
#include "engine/catalog.h"
#include "engine/index_cache.h"
#include "engine/planner.h"
#include "util/worker_pool.h"
#include "join/algorithm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/timer.h"

namespace touch {

/// Lifecycle phase of one submitted request, advanced by the worker thread
/// executing it (terminal phases by whoever delivers the result). The
/// cancellation flag is checked at every phase boundary and cooperatively
/// inside the execution kernels, so `phase()` on a RequestHandle tells you
/// where a cancel would currently take effect.
enum class RequestPhase : uint8_t {
  kQueued = 0,
  kPlanning = 1,
  kBuildingIndex = 2,
  kExecuting = 3,
  kCompleted = 4,
  kCancelled = 5,
};

/// Short stable name ("queued", ..., "cancelled") for logs and telemetry.
const char* RequestPhaseName(RequestPhase phase);

/// Terminal status of one engine query.
enum class RequestStatus : uint8_t {
  kOk = 0,
  /// The request was cancelled (handle, batch or CLI timeout) before it
  /// finished. Stats are partial, pairs may have been partially emitted.
  kCancelled = 1,
  /// The request could not run; JoinResult::error says why.
  kError = 2,
};

const char* RequestStatusName(RequestStatus status);

/// Direction of one continuous-join result delta (ResultSink::EmitDelta).
enum class DeltaKind : uint8_t { kAdded = 0, kRemoved = 1 };

struct EngineOptions {
  /// Worker threads for submitted requests; <= 0 uses hardware concurrency.
  /// A running TOUCH request also borrows the idle ones for its index build
  /// and local join (WorkerPool::ForkJoin).
  int threads = 0;
  PlannerOptions planner;
  /// Byte cap on the index cache (0 = unbounded). Once resident artifacts
  /// exceed it, the lowest build-cost-density ones are evicted (ties fall
  /// back to LRU); see IndexCache.
  size_t max_cache_bytes = 0;
  /// Shards per dataset of a ShardedQueryEngine built on these options
  /// (sharded_engine.h): each registered dataset is spatially partitioned
  /// into this many pieces and joins scatter-gather across shard pairs.
  /// A plain QueryEngine ignores it. <= 1 means unsharded.
  int shards = 1;
  /// Sharded mutation drift threshold: a shard whose current MBR margin
  /// exceeds this multiple of the margin it was partitioned with is
  /// re-partitioned (the whole dataset, from its live geometry). <= 0
  /// disables re-partitioning. A plain QueryEngine ignores it. See
  /// docs/DYNAMIC.md and docs/TUNING.md.
  double shard_repartition_drift = 2.0;
  /// Measured-run feedback: cold executions (including ExecuteFixed ones)
  /// are recorded into the engine's PlanFeedback store, and planning
  /// overrides the static rules with fitted per-family cost models once
  /// enough evidence accumulates. Disabling restores the purely static
  /// planner and records nothing. See CalibrationOptions.
  CalibrationOptions calibration;
  /// Tracing/test hook: called on the executing thread as a request enters
  /// each non-terminal phase (kPlanning, kBuildingIndex, kExecuting). Must
  /// be fast and must not call back into the engine. Deterministic
  /// cancellation tests park the worker here. Since the obs layer landed
  /// this is a thin adapter over the tracer's phase instants: both are
  /// driven from the same emission point (EnterPhase), the observer getting
  /// the enum, the tracer a `phase:<name>` event — so existing tests keep
  /// working unchanged with or without a tracer attached.
  std::function<void(RequestPhase)> phase_observer;
  /// Per-request span recording (null = tracing off, zero overhead beyond a
  /// pointer test). The caller owns the tracer's lifetime and export; the
  /// engine only appends spans. See docs/OBSERVABILITY.md for the span
  /// taxonomy and CLI --trace-out for the Chrome/Perfetto export.
  std::shared_ptr<Tracer> tracer;
  /// Metrics destination. Null makes the engine construct a private
  /// registry (always queryable via metrics()); pass MetricsRegistry::
  /// Global() — or any shared registry — to aggregate across engines. The
  /// engine registers sampled providers for its cache (`touch_cache_*`) and
  /// pool (`touch_pool_*`) and removes them in its destructor; two engines
  /// sharing one registry overwrite each other's providers, so give
  /// concurrent engines separate registries.
  std::shared_ptr<MetricsRegistry> metrics;
};

/// Outcome of one engine query.
struct JoinResult {
  /// kOk, kCancelled (stats partial) or kError (see `error`).
  RequestStatus status = RequestStatus::kOk;
  JoinPlan plan;
  JoinStats stats;
  /// True when the join ran entirely against cached index artifacts.
  bool index_cache_hit = false;
  /// True when some but not all of the plan's artifacts were cached (PBSM
  /// keeps one directory per side; one can hit while the other builds).
  /// Such runs are neither free nor representative of a cold build —
  /// build_seconds covers only the missing side — so they are excluded
  /// from calibration evidence.
  bool partial_index_cache_hit = false;
  /// Non-empty when the request could not run (unknown algorithm name, bad
  /// dataset handle); plan and stats are meaningless then.
  std::string error;
  /// Correlates this result with its span tree in the engine's tracer
  /// (SpanRecord::trace_id); 0 when the engine ran without one.
  uint64_t trace_id = 0;

  bool ok() const { return status == RequestStatus::kOk; }
  bool cancelled() const { return status == RequestStatus::kCancelled; }
};

/// Per-request result sink, owned by the engine for the lifetime of one
/// submitted request.
///
/// Threading contract: the engine calls Emit from exactly one worker thread
/// (the one executing the request; calls are never concurrent), then calls
/// OnComplete exactly once — after the final Emit — and finally drops its
/// reference. OnComplete normally runs on that same worker thread; the one
/// exception is a request cancelled while still queued, whose Cancelled
/// completion is delivered directly by the cancelling thread (the worker
/// never touches the request). A sink is never shared between requests, so
/// implementations need no synchronization of their own; anything a sink
/// writes is visible to whoever observes the request's future or completion
/// callback (completion happens-after OnComplete).
class ResultSink : public ResultCollector {
 public:
  /// Default Emit drops pairs; result counts still arrive through
  /// JoinResult::stats.results. Override to materialize or stream pairs.
  void Emit(uint32_t, uint32_t) override {}

  /// Continuous-join delta: pair (a_id, b_id) entered (kAdded) or left
  /// (kRemoved) the result set. Called only for JoinRequest::continuous
  /// requests — the initial pair set arrives as kAdded deltas at submit
  /// time, then one delta burst follows each mutation batch of either
  /// dataset. Ids are stable object ids (DatasetSnapshot::id_of), not slot
  /// indices. Same single-emitter threading contract as Emit: deltas of
  /// one request are never emitted concurrently, and the final OnComplete
  /// (delivered by Cancel) happens-after the last delta.
  virtual void EmitDelta(DeltaKind kind, uint32_t a_id, uint32_t b_id) {
    (void)kind;
    (void)a_id;
    (void)b_id;
  }

  /// Called exactly once per request, also on failure (inspect
  /// result.error). Must not block indefinitely and must not call back into
  /// the engine's synchronous wrappers (they would wait on the very worker
  /// executing this callback).
  virtual void OnComplete(const JoinResult& result) { (void)result; }
};

/// Bridges a caller-owned ResultCollector onto the engine-owned sink model
/// (the synchronous wrappers' adapter, shared with the sharded engine).
/// The collector must outlive the request.
class ForwardingSink : public ResultSink {
 public:
  explicit ForwardingSink(ResultCollector& out) : out_(out) {}
  void Emit(uint32_t a_id, uint32_t b_id) override { out_.Emit(a_id, b_id); }

 private:
  ResultCollector& out_;
};

/// Completion callback of the callback-flavored Submit; same threading
/// contract as ResultSink::OnComplete (runs right after it).
using CompletionCallback = std::function<void(const JoinResult&)>;

/// Supplies the sink for requests[i] in SubmitBatch; may return null for
/// count-only requests.
using SinkFactory = std::function<std::unique_ptr<ResultSink>(size_t)>;

namespace internal {
struct RequestState;
struct ArtifactFamily;
}  // namespace internal

/// Handle of one submitted request: the result future plus the request's
/// cancellation side. Move-only (it owns the future); safe to poll from any
/// thread.
///
/// Cancellation semantics:
///  - A request still *queued* completes immediately: Cancel() itself
///    delivers the Cancelled result (sink OnComplete and completion
///    callback run on the cancelling thread) and the worker pool skips the
///    task entirely — a cancelled request never burns a worker.
///  - A request already *executing* is stopped cooperatively: the flag is
///    checked at every phase boundary and inside the partition/probe loops
///    of the long local joins, so the future completes with kCancelled
///    promptly (milliseconds) instead of after the full join.
///  - Cancelling a *finished* request is a no-op returning false.
/// Cancel racing completion is benign: the future completes exactly once,
/// with either the full result or kCancelled.
class RequestHandle {
 public:
  RequestHandle();
  RequestHandle(RequestHandle&&) noexcept;
  RequestHandle& operator=(RequestHandle&&) noexcept;
  RequestHandle(const RequestHandle&) = delete;
  RequestHandle& operator=(const RequestHandle&) = delete;
  ~RequestHandle();

  bool valid() const { return state_ != nullptr; }

  /// The result future (always completes; never throws engine errors —
  /// failures arrive as JoinResult::status/error).
  std::future<JoinResult>& future() { return future_; }

  /// Blocks for and consumes the result: future().get().
  JoinResult Get() { return future_.get(); }

  /// Requests cancellation. Returns true when this call newly requested it
  /// on a not-yet-finished request; false on repeats, finished requests and
  /// invalid handles.
  bool Cancel();

  bool cancel_requested() const;

  /// Where the request currently is (kCompleted for invalid handles).
  RequestPhase phase() const;

  /// The request's cancellation token — the same one the worker polls;
  /// callers can hand it to their own cooperating code.
  CancellationToken token() const;

 private:
  friend class QueryEngine;
  RequestHandle(std::shared_ptr<internal::RequestState> state,
                std::future<JoinResult> future);

  std::shared_ptr<internal::RequestState> state_;
  std::future<JoinResult> future_;
};

/// Handles of one submitted batch, index-aligned with the requests passed
/// to SubmitBatch. Adds whole-batch cancellation on top of the per-request
/// handles.
class BatchHandle {
 public:
  size_t size() const { return requests_.size(); }
  bool empty() const { return requests_.empty(); }
  RequestHandle& operator[](size_t i) { return requests_[i]; }
  std::vector<RequestHandle>& requests() { return requests_; }

  /// Cancels every request of the batch (each with RequestHandle::Cancel
  /// semantics); returns how many were newly cancelled.
  size_t CancelAll();

  /// Blocks for every result, index-aligned; consumes the futures.
  std::vector<JoinResult> GetAll();

 private:
  friend class QueryEngine;
  std::vector<RequestHandle> requests_;
};

/// The adaptive spatial-join query engine: the layer that turns the
/// algorithm library into a service. Datasets are registered once (stats
/// precomputed), every join request is planned cost-based, built index
/// artifacts (TOUCH trees, INL R-trees, PBSM cell directories) are cached
/// with LRU eviction and reused across queries, and requests execute
/// asynchronously on a persistent worker pool.
///
/// The primary surface is asynchronous submission: Submit returns a
/// RequestHandle — a per-request std::future that completes independently
/// of every other request (a slow join never delays a fast one's result)
/// plus the request's cancellation side — with an optional engine-owned
/// ResultSink for pair delivery and a completion-callback overload.
/// Execute/ExecuteFixed/ExecuteBatch are thin synchronous wrappers over
/// the same submit path.
///
/// Request lifecycle: queued → planning → building-index → executing →
/// completed, with cancelled reachable from every non-terminal phase. The
/// cancellation flag is checked at each boundary and cooperatively inside
/// the partition/probe loops of the local joins; index builds are shared
/// artifacts and always run to completion (a cancel arriving mid-build
/// takes effect at the next boundary, and the artifact stays cached for
/// other requests).
///
/// Threading contract: every public method is safe to call concurrently.
/// RegisterDataset and ApplyMutations may race with queries (the catalog is
/// internally synchronized; queries read pinned copy-on-write snapshots, so
/// a mutation never invalidates geometry a running join is scanning),
/// though a query can of course only name handles whose registration has
/// returned. Plan, Submit, SubmitBatch and the synchronous wrappers may all
/// run concurrently with each other and with mutation batches. The
/// synchronous wrappers block on worker capacity, so they must not be
/// called from sink callbacks.
///
/// Lock discipline: the query path holds no engine mutex — the request
/// state machine is a lock-free atomic phase lifecycle
/// (internal::RequestState) and all shared mutable state lives behind the
/// internally-synchronized components (catalog, cache, feedback, pool,
/// metrics), each annotated with the capability attributes in
/// util/thread_annotations.h. The mutation path serializes on
/// mutation_mutex_ → delta_sink_mutex_ (in that order); continuous-join
/// deltas are the one user callback emitted under an engine lock, which is
/// why delta sinks must not call back into the engine.
class QueryEngine {
 public:
  explicit QueryEngine(const EngineOptions& options = {});

  /// Unregisters this engine's metric providers from the registry (they
  /// sample the cache and pool about to be destroyed), then drains the pool.
  ~QueryEngine();

  /// Registers a dataset (stats are computed here, once). The returned
  /// handle is what join requests refer to. Throws std::invalid_argument,
  /// before any other work, if a box has a NaN coordinate or lo > hi
  /// (CheckApplicableBoxes).
  DatasetHandle RegisterDataset(std::string name, Dataset boxes);

  /// Registers with stats the caller already computed (the sharded engine
  /// partitions and serializes per-shard stats before registering the
  /// shard boxes; recomputing here would double the registration scan).
  /// Rejects bad boxes as the overload above does.
  DatasetHandle RegisterDataset(std::string name, Dataset boxes,
                                DatasetStats stats);

  const DatasetCatalog& catalog() const { return catalog_; }

  // --- Mutations ----------------------------------------------------------

  /// Applies one mutation batch to a registered dataset: the catalog
  /// updates geometry + incremental stats and bumps the dataset version,
  /// stale index-cache artifacts are invalidated (counted as evictions),
  /// and every continuous join standing on the dataset receives its
  /// kAdded/kRemoved delta burst — computed by epsilon-window re-probe of
  /// only the mutated objects against the partner's dynamic R-tree, never
  /// a re-join. Batches serialize against each other and against
  /// continuous submits; queries (Submit/Execute) keep running
  /// concurrently against pinned snapshots. Records a `mutate` span (plus
  /// one `delta-probe` span per notified subscription) and the
  /// `touch_mutations_total` / `touch_delta_results_total` counters.
  /// Returns the dataset's new version.
  uint64_t ApplyMutations(DatasetHandle dataset,
                          std::span<const Mutation> mutations);

  /// Plans without executing (the CLI's explain path).
  JoinPlan Plan(const JoinRequest& request) const;

  // --- Asynchronous submission -------------------------------------------

  /// Enqueues the request and returns a handle whose future completes when
  /// the join finishes — independently of any other request — and whose
  /// Cancel() abandons it (see RequestHandle for the lifecycle semantics).
  /// `sink` (optional) receives every result pair and then OnComplete; the
  /// engine owns it until completion. Failures complete the future with
  /// JoinResult::status = kError; the future never throws and always
  /// completes (the engine's destructor drains outstanding requests).
  RequestHandle Submit(const JoinRequest& request,
                       std::unique_ptr<ResultSink> sink = nullptr);

  /// Completion-callback overload: `on_complete` runs on the delivering
  /// thread right after the sink's OnComplete, in addition to the handle's
  /// future.
  RequestHandle Submit(const JoinRequest& request,
                       std::unique_ptr<ResultSink> sink,
                       CompletionCallback on_complete);

  /// Submits a request that was planned elsewhere: execution skips the
  /// planning phase and runs `plan` as-is (lifecycle, cancellation,
  /// deadline and caching behave exactly like Submit). This is the sharded
  /// scatter path — shard pairs are planned centrally from serialized
  /// shard stats and must execute the plan they were scattered with, not a
  /// replan. The plan's algorithm must be a MakeAlgorithm name; unknown
  /// names complete the future with kError.
  RequestHandle SubmitPlanned(JoinPlan plan, const JoinRequest& request,
                              std::unique_ptr<ResultSink> sink = nullptr);

  /// Submits every request at once; the returned handles (index-aligned
  /// with `requests`) complete independently as each request finishes, so
  /// callers stream results instead of waiting for the whole batch — and
  /// can cancel individual requests or the whole batch (CancelAll).
  /// `make_sink(i)`, when given, supplies the engine-owned sink of
  /// requests[i].
  BatchHandle SubmitBatch(std::span<const JoinRequest> requests,
                          const SinkFactory& make_sink = {});

  // --- Synchronous wrappers (implemented on Submit) ----------------------

  /// Plans and executes one join, emitting (a, b) pairs into `out`; blocks
  /// until done. Thin wrapper: Submit + future wait. `out` is only touched
  /// by the single worker executing this request, never concurrently. A
  /// continuous request has no final result to wait for and completes with
  /// kError; Submit it instead.
  JoinResult Execute(const JoinRequest& request, ResultCollector& out);

  /// Executes with a fixed algorithm ("auto" falls back to the planner);
  /// blocks until done. Unknown names fill JoinResult::error — with the
  /// accepted list — and execute nothing. The fixed plan runs through the
  /// submit path like a SubmitPlanned request: it executes on the worker
  /// pool and follows Submit's deadline and cancellation rules. Like every
  /// synchronous wrapper it must not be called from sink callbacks.
  JoinResult ExecuteFixed(const std::string& algorithm,
                          const JoinRequest& request, ResultCollector& out);

  /// Plans and executes all requests concurrently on the worker pool,
  /// blocking until every one finished. Results are counted, not
  /// materialized (see stats.results); the output order matches `requests`.
  /// Thin wrapper: SubmitBatch + wait on every future.
  std::vector<JoinResult> ExecuteBatch(std::span<const JoinRequest> requests);

  // --- Introspection -----------------------------------------------------

  IndexCache::Stats cache_stats() const { return cache_.stats(); }
  void ClearIndexCache() { cache_.Clear(); }

  /// The measured-run feedback store (see calibration.h). Exposed mutable so
  /// tools and tests can inject or clear evidence; the engine itself records
  /// every cold execution here when calibration is enabled.
  PlanFeedback& feedback() { return feedback_; }
  const PlanFeedback& feedback() const { return feedback_; }

  /// Current fitted cost models at this engine's min_samples threshold (what
  /// the next Plan call will consult when calibration is enabled).
  CalibrationSnapshot calibration_snapshot() const {
    return feedback_.Snapshot(options_.calibration.min_samples);
  }

  const EngineOptions& options() const { return options_; }

  /// The engine's metrics registry: the one passed in EngineOptions, or the
  /// private registry the engine constructed when none was. Always valid.
  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }

  /// The attached tracer (null = tracing off).
  Tracer* tracer() const { return tracer_.get(); }

  /// Actual worker-pool size (resolves the options' 0 = hardware default).
  int threads() const { return pool_.thread_count(); }

  /// The worker pool's live load signals (queue depth, busy workers, tasks
  /// completed) — also exported as `touch_pool_*` through metrics().
  const WorkerPool& pool() const { return pool_; }

 private:
  /// Cancellation token plus the shared state the phase transitions are
  /// published through.
  struct ExecContext {
    CancellationToken cancel;
    internal::RequestState* state = nullptr;
    /// The request's root span as a parent for phase spans (inactive when
    /// the engine has no tracer; every SpanScope built from it no-ops).
    TraceContext trace;
    /// The datasets as pinned at execution start: every executor reads
    /// geometry, stats and cache-key versions from these, so a mutation
    /// batch landing mid-join can neither free boxes under a kernel nor
    /// tear one request across two versions.
    DatasetSnapshotPtr snap_a;
    DatasetSnapshotPtr snap_b;
  };

  /// The state every request starts from: sink, callback, deadline and
  /// trace identity (shared by the one-shot and continuous submit paths).
  std::shared_ptr<internal::RequestState> NewRequestState(
      const JoinRequest& request, std::unique_ptr<ResultSink> sink,
      CompletionCallback on_complete);
  /// Enqueues a one-shot request on the worker pool.
  RequestHandle SubmitInternal(std::shared_ptr<internal::RequestState> state);
  /// Publishes a phase transition (request state + phase_observer).
  void EnterPhase(const ExecContext& ctx, RequestPhase phase) const;
  /// The per-request core every one-shot request funnels into: validates,
  /// plans (or adopts `preplanned`), measures time-to-first-result,
  /// dispatches to ExecuteCached or ExecuteUncached, converts failures into
  /// JoinResult::error and cooperative cancellation into status =
  /// kCancelled.
  JoinResult ExecuteRequest(const JoinRequest& request, ResultCollector& out,
                            const ExecContext& ctx,
                            const JoinPlan* preplanned = nullptr);
  /// The one execute path of the cacheable families (TOUCH, INL, PBSM):
  /// acquire the plan's artifacts from the index cache, building missing
  /// ones (phase kBuildingIndex, span build-index), then probe them (phase
  /// kExecuting, span execute). See the family table in engine.cc. Both
  /// executors report `total` (started with the request's sink wrapper) as
  /// total_seconds.
  JoinResult ExecuteCached(const internal::ArtifactFamily& family,
                           JoinPlan plan, const JoinRequest& request,
                           ResultCollector& out, const ExecContext& ctx,
                           const Timer& total);
  /// The algorithms without a cacheable artifact (the planner sends small
  /// inputs to nl/ps): build and join in one library call.
  JoinResult ExecuteUncached(JoinPlan plan, const JoinRequest& request,
                             ResultCollector& out, const ExecContext& ctx,
                             const Timer& total);
  /// Feeds one finished request's measurements into the feedback store
  /// (fully cold, successful runs only; cancelled runs have partial stats
  /// and are never evidence). Counts and the result estimate describe the
  /// datasets as `ctx` pinned them, the version that ran.
  void RecordOutcome(const JoinRequest& request, const ExecContext& ctx,
                     const JoinResult& result);
  /// Continuous-submit path: registers the standing query and emits the
  /// initial pair set as kAdded deltas (under the mutation serialization,
  /// so no batch can interleave with the baseline).
  RequestHandle SubmitContinuous(
      std::shared_ptr<internal::RequestState> state);
  /// Work of one subscription's delta burst.
  struct DeltaProbeCounts {
    size_t deltas = 0;
    /// Partner-tree traversals: one per moved object whose old and new
    /// epsilon-windows intersect, otherwise one per window it has.
    size_t probes = 0;
  };
  /// Probes objects [0, n) of a standing join against `partner`'s tree and
  /// emits their deltas to `sink` in object order; returns the deltas
  /// emitted. `probe(i, tree, out)` appends object i's deltas to `out`. It
  /// runs under one catalog lock per round of objects and only reads; the
  /// sink is called after the lock is released. A stop seen between two
  /// objects ends the emission there, so what was emitted is a prefix of
  /// the uncancelled sequence.
  template <typename Probe>
  size_t ProbeInOrder(DatasetHandle partner, size_t n,
                      const CancellationSource& cancel, ResultSink& sink,
                      const Probe& probe);
  /// Emits one subscription's delta burst for a folded mutation batch
  /// through ProbeInOrder. delta_sink_mutex_ held.
  DeltaProbeCounts DeltaProbeLocked(internal::RequestState& state,
                                    DatasetHandle mutated,
                                    std::span<const AppliedMutation> net)
      REQUIRES(delta_sink_mutex_);

  EngineOptions options_;
  // tracer_/metrics_ are declared before pool_ so requests still draining in
  // the pool's destructor can record spans and counters safely.
  std::shared_ptr<Tracer> tracer_;
  std::shared_ptr<MetricsRegistry> metrics_;
  DatasetCatalog catalog_;
  Planner planner_;
  IndexCache cache_;
  PlanFeedback feedback_;
  /// Serializes mutation batches (and the continuous-submit baseline join)
  /// against each other. Queries never take it — they read pinned
  /// snapshots — so mutations cannot stall the worker pool.
  Mutex mutation_mutex_;
  /// Guards the standing-query list; also the lock delta emission runs
  /// under. Acquired after mutation_mutex_, never before it.
  Mutex delta_sink_mutex_;
  /// Subscribed continuous requests; an entry is removed lazily (by the
  /// first mutation batch that finds it delivered) or by the destructor.
  std::vector<std::shared_ptr<internal::RequestState>> subs_
      GUARDED_BY(delta_sink_mutex_);
  WorkerPool pool_;
};

}  // namespace touch

#endif  // TOUCH_ENGINE_ENGINE_H_
