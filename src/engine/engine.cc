#include "engine/engine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/factory.h"
#include "core/overlap_kernel.h"
#include "core/touch.h"
#include "geom/grid.h"
#include "index/rtree.h"
#include "join/pbsm.h"
#include "join/rtree_join.h"
#include "util/memory.h"
#include "util/timer.h"

namespace touch {
namespace {

/// Flips pairs back to (a, b) order when a join ran with swapped inputs.
class SwappedCollector : public ResultCollector {
 public:
  explicit SwappedCollector(ResultCollector& out) : out_(out) {}
  void Emit(uint32_t a_id, uint32_t b_id) override { out_.Emit(b_id, a_id); }

 private:
  ResultCollector& out_;
};

/// Translates the dense slot indices the kernels emit into stable object
/// ids (DatasetSnapshot::id_of). Only interposed when a dataset has been
/// mutated out of slot/id identity, so never-mutated datasets keep the
/// zero-cost emission path.
class RemapCollector : public ResultCollector {
 public:
  RemapCollector(ResultCollector& out, const DatasetSnapshot& a,
                 const DatasetSnapshot& b)
      : out_(out), a_(a), b_(b) {}
  void Emit(uint32_t a_slot, uint32_t b_slot) override {
    out_.Emit(a_.id_of(a_slot), b_.id_of(b_slot));
  }

 private:
  ResultCollector& out_;
  const DatasetSnapshot& a_;
  const DatasetSnapshot& b_;
};

/// Measures time-to-first-Emit for every algorithm; the only writer of
/// `JoinStats::first_result_seconds`. Wrapped around the request's collector
/// in ExecuteRequest; single-threaded like every engine sink (Emit calls are
/// never concurrent per request). Reads the execution's own clock, the one
/// total_seconds is taken from, so the first result can never read later
/// than the whole execution.
class FirstEmitCollector : public ResultCollector {
 public:
  FirstEmitCollector(ResultCollector& out, const TraceContext& trace,
                     const Timer& clock)
      : out_(out), trace_(trace), clock_(clock) {}

  void Emit(uint32_t a_id, uint32_t b_id) override {
    if (!seen_) {
      seen_ = true;
      elapsed_seconds_ = clock_.Seconds();
      if (trace_.active()) {
        trace_.tracer->RecordInstant(trace_.trace_id, trace_.span_id,
                                     "first-result");
      }
    }
    out_.Emit(a_id, b_id);
  }

  bool seen() const { return seen_; }
  double elapsed_seconds() const { return elapsed_seconds_; }

 private:
  ResultCollector& out_;
  TraceContext trace_;
  const Timer& clock_;
  bool seen_ = false;
  double elapsed_seconds_ = 0.0;
};

Dataset EnlargedCopy(std::span<const Box> boxes, float epsilon) {
  Dataset out;
  out.reserve(boxes.size());
  for (const Box& box : boxes) out.push_back(box.Enlarged(epsilon));
  return out;
}

// --- Cached artifacts --------------------------------------------------------

/// One family's index structure plus the exact boxes it was built over. When
/// the artifact's key bakes in a nonzero epsilon, `owned_boxes` holds the
/// enlarged copy; otherwise it stays empty and the structure indexes the
/// catalog's boxes, which Boxes() then borrows — the key's dataset version
/// guarantees the caller's pinned snapshot holds exactly those boxes. A
/// family whose probe never reads the boxes (INL) keeps no copy, and must
/// not call Boxes().
template <typename Structure>
struct Cached : CachedArtifact {
  Dataset owned_boxes;
  Structure structure;

  Cached(Dataset owned, Structure built, double seconds)
      : owned_boxes(std::move(owned)), structure(std::move(built)) {
    build_seconds = seconds;
  }
  std::span<const Box> Boxes(std::span<const Box> catalog_boxes) const {
    return owned_boxes.empty() ? catalog_boxes
                               : std::span<const Box>(owned_boxes);
  }
  size_t MemoryUsageBytes() const override {
    return structure.MemoryUsageBytes() + VectorBytes(owned_boxes);
  }
};

template <typename Structure>
const Cached<Structure>& As(const IndexCache::ArtifactPtr& artifact) {
  return static_cast<const Cached<Structure>&>(*artifact);
}

/// A bulk-loaded STR R-tree for the indexed nested loop, with an SoA slab of
/// its items in item_ids order (the tree holds its node MBRs itself). Unlike
/// the library join's transient slab this one is part of the artifact's
/// accounted footprint: the cache really holds it between requests.
struct InlIndex {
  RTree tree;
  BoxSlab items;

  size_t MemoryUsageBytes() const {
    return tree.MemoryUsageBytes() + items.MemoryUsageBytes();
  }
};

/// One dataset's PBSM cell directory: key-sorted placements over a specific
/// joint grid. `domain` records that grid exactly, so a lookup can verify it
/// got the grid it asked for (the cache key only carries a 64-bit signature
/// of the domain).
struct PbsmDirectory {
  Box domain = Box::Empty();
  std::vector<PbsmPlacement> placements;

  size_t MemoryUsageBytes() const { return VectorBytes(placements); }
};

// --- Artifact families ------------------------------------------------------

/// What a family row reads: the request, its plan and the pinned snapshots,
/// plus the engine's pool, whose idle workers a build or probe may borrow
/// (builds record the workers that helped in `build_helpers`).
struct FamilyInput {
  const JoinPlan& plan;
  const JoinRequest& request;
  const DatasetSnapshot& a;
  const DatasetSnapshot& b;
  WorkerPool& pool;
  HelperSet& build_helpers;
};

/// One artifact a plan needs: its cache key, and the catalog boxes it is
/// built over before the key's epsilon enlargement.
struct ArtifactNeed {
  IndexCacheKey key;
  std::span<const Box> source;
};

/// The one build routine of every family: enlarge into an owned copy when
/// the key bakes in an epsilon, else build over the borrowed catalog span,
/// and time the whole build. Unless the family's probe reads the boxes
/// again, the owned copy is released once the structure is built.
template <typename Structure, typename Make>
IndexCache::ArtifactPtr BuildCached(const ArtifactNeed& need, const Make& make,
                                    bool probe_reads_boxes = true) {
  Timer timer;
  Dataset owned = need.key.epsilon > 0
                      ? EnlargedCopy(need.source, need.key.epsilon)
                      : Dataset{};
  const std::span<const Box> input =
      owned.empty() ? need.source : std::span<const Box>(owned);
  Structure structure = make(input);
  if (!probe_reads_boxes) owned = Dataset{};
  return std::make_shared<Cached<Structure>>(
      std::move(owned), std::move(structure), timer.Seconds());
}

/// The one artifact TOUCH and INL need: an index over the plan's build side.
/// The distance join enlarges side A (as the oracle does), so a tree over A
/// bakes the enlargement into the artifact and its key, while a tree over B
/// stays raw — epsilon-independent, reusable across thresholds — and the
/// probe enlarges each A box instead (the intersection test is symmetric, so
/// the result set is identical).
std::vector<ArtifactNeed> BuildSideNeed(const FamilyInput& in, size_t shape_a,
                                        size_t shape_b, ArtifactKind kind) {
  const bool on_a = in.plan.build_on_a;
  const DatasetSnapshot& side = on_a ? in.a : in.b;
  return {{IndexCacheKey{on_a ? in.request.a : in.request.b, side.version,
                         on_a ? in.request.epsilon : 0.0f, shape_a, shape_b,
                         kind},
           side.boxes}};
}

std::vector<ArtifactNeed> TouchNeeds(const FamilyInput& in) {
  const TouchOptions& options = in.plan.touch;
  size_t leaf_capacity = options.leaf_capacity;
  if (leaf_capacity == 0) {
    const size_t build_count =
        (in.plan.build_on_a ? in.a : in.b).boxes.size();
    const size_t partitions = std::max<size_t>(1, options.partitions);
    leaf_capacity = (build_count + partitions - 1) / partitions;
  }
  return BuildSideNeed(in, std::max<size_t>(1, leaf_capacity), options.fanout,
                       ArtifactKind::kTouchTree);
}

IndexCache::ArtifactPtr BuildTouchTree(const FamilyInput& in,
                                       const ArtifactNeed& need) {
  return BuildCached<RTree>(need, [&](std::span<const Box> boxes) {
    return RTree(boxes, need.key.shape_a, need.key.shape_b,
                 BulkLoadMethod::kStr, &in.pool, &in.build_helpers);
  });
}

JoinStats ProbeTouchTree(const FamilyInput& in,
                         std::span<const IndexCache::ArtifactPtr> artifacts,
                         ResultCollector& out, CancellationToken cancel) {
  const Cached<RTree>& entry = As<RTree>(artifacts[0]);
  TouchJoin join(in.plan.touch);
  if (in.plan.build_on_a) {
    return join.JoinWithPrebuiltTree(entry.structure, entry.Boxes(in.a.boxes),
                                     in.b.boxes, out, 0.0f, cancel, &in.pool);
  }
  // The tree was built raw over B, so side A carries the enlargement —
  // applied on the fly per probe box, never as an O(|A|) copy: cache hits
  // are allocation-free.
  SwappedCollector swapped(out);
  return join.JoinWithPrebuiltTree(entry.structure, entry.Boxes(in.b.boxes),
                                   in.a.boxes, swapped, in.request.epsilon,
                                   cancel, &in.pool);
}

std::vector<ArtifactNeed> InlNeeds(const FamilyInput& in) {
  const RTreeJoinOptions tree_options;  // defaults: the paper's best config
  return BuildSideNeed(in, tree_options.leaf_capacity, tree_options.fanout,
                       ArtifactKind::kInlRTree);
}

IndexCache::ArtifactPtr BuildInlIndex(const FamilyInput&,
                                      const ArtifactNeed& need) {
  return BuildCached<InlIndex>(
      need,
      [&](std::span<const Box> boxes) {
        InlIndex index{RTree(boxes, need.key.shape_a, need.key.shape_b,
                             RTreeJoinOptions{}.bulkload),
                       {}};
        index.items.AssignGather(boxes, index.tree.item_ids());
        return index;
      },
      /*probe_reads_boxes=*/false);
}

JoinStats ProbeInlIndex(const FamilyInput& in,
                        std::span<const IndexCache::ArtifactPtr> artifacts,
                        ResultCollector& out, CancellationToken cancel) {
  const InlIndex& index = As<InlIndex>(artifacts[0]).structure;
  JoinStats stats;
  Timer join_timer;
  // The probe loop is the INL kernel; it runs here, so its span does too
  // (the library's IndexedNestedLoopJoin opens its own). The batched probe
  // polls cancellation at a power-of-two query stride and emits in
  // RTree::Query's DFS order.
  SpanScope probe_span("inl-probe");
  if (in.plan.build_on_a) {
    BatchedTreeProbe(index.tree, index.items, in.b.boxes,
                     /*probe_epsilon=*/0.0f, /*swap_emit=*/false, &stats, out,
                     cancel);
  } else {
    BatchedTreeProbe(index.tree, index.items, in.a.boxes, in.request.epsilon,
                     /*swap_emit=*/true, &stats, out, cancel);
  }
  probe_span.End();
  stats.join_seconds = join_timer.Seconds();
  return stats;
}

/// PBSM's joint grid, derived from the pinned stats instead of a rescan.
/// This is bit-identical to PbsmJoin's internal joint MBR: the stats
/// extents are exact, and enlarging the extent equals the extent of the
/// enlarged boxes (subtracting/adding epsilon is monotone under rounding).
Box PbsmDomain(const FamilyInput& in) {
  Box domain = in.a.stats.extent.Enlarged(in.request.epsilon);
  domain.ExpandToContain(in.b.stats.extent);
  return domain;
}

int PbsmResolution(const JoinPlan& plan) {
  int resolution = 0;
  ParsePbsmResolution(plan.algorithm, &resolution);
  return resolution;
}

/// Exact (bit-level intent, float ==) domain equality.
bool SameDomain(const Box& x, const Box& y) {
  return x.lo.x == y.lo.x && x.lo.y == y.lo.y && x.lo.z == y.lo.z &&
         x.hi.x == y.hi.x && x.hi.y == y.hi.y && x.hi.z == y.hi.z;
}

/// Cache-key signature of a PBSM joint grid domain: directories are only
/// interchangeable when they were placed over bit-identical grids, and the
/// grid depends on the *partner* dataset's extent — hashing the domain into
/// the key keeps directories built for different partners apart.
size_t DomainSignature(const Box& domain) {
  const float fields[6] = {domain.lo.x, domain.lo.y, domain.lo.z,
                           domain.hi.x, domain.hi.y, domain.hi.z};
  size_t hash = 0;
  for (const float field : fields) {
    uint32_t bits = 0;
    std::memcpy(&bits, &field, sizeof(bits));
    hash ^= bits + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  }
  return hash;
}

/// One directory per side: A's carries the enlargement, B's is
/// epsilon-independent (a self-join with epsilon 0 collapses both onto one
/// cache entry). An empty side needs nothing: the join is empty.
std::vector<ArtifactNeed> PbsmNeeds(const FamilyInput& in) {
  if (in.a.boxes.empty() || in.b.boxes.empty()) return {};
  const size_t resolution = static_cast<size_t>(PbsmResolution(in.plan));
  const size_t signature = DomainSignature(PbsmDomain(in));
  const auto need = [&](DatasetHandle handle, const DatasetSnapshot& snap,
                        float epsilon) {
    return ArtifactNeed{IndexCacheKey{handle, snap.version, epsilon,
                                      resolution, signature,
                                      ArtifactKind::kPbsmDirectory},
                        snap.boxes};
  };
  return {need(in.request.a, in.a, in.request.epsilon),
          need(in.request.b, in.b, 0.0f)};
}

IndexCache::ArtifactPtr BuildPbsmDirectory(const FamilyInput& in,
                                           const ArtifactNeed& need) {
  const Box domain = PbsmDomain(in);
  const GridMapper grid(domain, static_cast<int>(need.key.shape_a));
  return BuildCached<PbsmDirectory>(need, [&](std::span<const Box> boxes) {
    return PbsmDirectory{domain, BuildPbsmPlacements(boxes, grid)};
  });
}

/// A 64-bit signature collision hands back placements computed over a
/// *different* joint grid that hashed alike; merging them with this grid
/// would silently drop or duplicate pairs.
bool PbsmDirectoryFits(const FamilyInput& in,
                       const IndexCache::ArtifactPtr& artifact) {
  return SameDomain(As<PbsmDirectory>(artifact).structure.domain,
                    PbsmDomain(in));
}

JoinStats ProbePbsmDirectories(
    const FamilyInput& in, std::span<const IndexCache::ArtifactPtr> artifacts,
    ResultCollector& out, CancellationToken cancel) {
  const Cached<PbsmDirectory>& dir_a = As<PbsmDirectory>(artifacts[0]);
  const Cached<PbsmDirectory>& dir_b = As<PbsmDirectory>(artifacts[1]);
  JoinStats stats;
  Timer join_timer;
  PbsmMergeJoin(dir_a.Boxes(in.a.boxes), dir_a.structure.placements,
                dir_b.Boxes(in.b.boxes), dir_b.structure.placements,
                GridMapper(PbsmDomain(in), PbsmResolution(in.plan)),
                LocalJoinStrategy::kPlaneSweep, &stats, out, cancel);
  stats.join_seconds = join_timer.Seconds();
  return stats;
}

}  // namespace

/// One row of the artifact-family table: everything the generic cached
/// execute (QueryEngine::ExecuteCached) needs to run a plan as the paper's
/// section-4.3 shortcut — acquire the index artifacts from the cache
/// (building the missing ones), then probe them.
struct internal::ArtifactFamily {
  /// Whether a plan's algorithm belongs to this family.
  bool (*matches)(const std::string& algorithm);
  /// The `build-index` span's `kind` attr.
  const char* kind;
  /// The artifacts a plan needs, in acquisition order; empty when the join
  /// is empty without probing anything.
  std::vector<ArtifactNeed> (*needs)(const FamilyInput& in);
  IndexCache::ArtifactPtr (*build)(const FamilyInput& in,
                                   const ArtifactNeed& need);
  /// Optional check that a cache hit really is the artifact this request
  /// needs; a rejected hit is served from a private, uncached build.
  bool (*fits)(const FamilyInput& in, const IndexCache::ArtifactPtr& artifact);
  /// The join over the acquired artifacts (index-aligned with needs()).
  JoinStats (*probe)(const FamilyInput& in,
                     std::span<const IndexCache::ArtifactPtr> artifacts,
                     ResultCollector& out, CancellationToken cancel);
  /// True: stats.memory_bytes is the artifacts' resident bytes, the cache's
  /// own accounting. False: the probe reports its own footprint (TOUCH's
  /// includes its per-join assignment lists).
  bool artifact_bytes;
};

namespace {

const internal::ArtifactFamily kArtifactFamilies[] = {
    {[](const std::string& algorithm) { return algorithm == "touch"; },
     "touch-tree", TouchNeeds, BuildTouchTree, nullptr, ProbeTouchTree,
     false},
    {[](const std::string& algorithm) { return algorithm == "inl"; },
     "inl-rtree", InlNeeds, BuildInlIndex, nullptr, ProbeInlIndex, true},
    {[](const std::string& algorithm) {
       int resolution = 0;
       return ParsePbsmResolution(algorithm, &resolution);
     },
     "pbsm-directory", PbsmNeeds, BuildPbsmDirectory, PbsmDirectoryFits,
     ProbePbsmDirectories, true},
};

/// The family row serving `algorithm`, or null for the uncached algorithms.
const internal::ArtifactFamily* FamilyFor(const std::string& algorithm) {
  for (const internal::ArtifactFamily& family : kArtifactFamilies) {
    if (family.matches(algorithm)) return &family;
  }
  return nullptr;
}

}  // namespace

const char* RequestPhaseName(RequestPhase phase) {
  switch (phase) {
    case RequestPhase::kQueued:
      return "queued";
    case RequestPhase::kPlanning:
      return "planning";
    case RequestPhase::kBuildingIndex:
      return "building-index";
    case RequestPhase::kExecuting:
      return "executing";
    case RequestPhase::kCompleted:
      return "completed";
    case RequestPhase::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kError:
      return "error";
  }
  return "unknown";
}

/// Where a standing join is in the touch_subscriptions gauge: kLive from
/// subscribe to delivery, whichever order a racing Cancel makes them run.
enum class Subscription : uint8_t { kNone, kLive, kEnded };

/// Everything one submitted request needs to execute and complete,
/// reference-counted across the handle, the pool task and its completion
/// notification.
struct internal::RequestState {
  JoinRequest request;
  std::unique_ptr<ResultSink> sink;  // may be null (count-only)
  CompletionCallback on_complete;    // may be null
  /// Non-null for SubmitPlanned requests: the centrally computed plan the
  /// worker executes instead of planning (the sharded scatter path).
  std::unique_ptr<JoinPlan> preplanned;
  std::promise<JoinResult> promise;
  JoinResult result;
  /// Advanced by the executing worker; the kQueued→kPlanning transition is
  /// a CAS the worker and a prompt queued-cancel race for — exactly one of
  /// them claims the request.
  std::atomic<RequestPhase> phase{RequestPhase::kQueued};
  CancellationSource cancel;
  /// Exactly-once guard on result delivery (sink OnComplete + callback +
  /// promise): the worker's completion notification and a prompt
  /// queued-cancel both funnel through it.
  std::atomic<bool> delivered{false};
  /// Observability wiring (raw pointers into the engine; valid for the
  /// request's whole life because the engine's pool drains every request
  /// before tracer_/metrics_ are destroyed, and Deliver runs at most once).
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// This request's trace identity: the root "request" span every phase
  /// span parents onto, recorded by whoever delivers the result.
  uint64_t trace_id = 0;
  uint64_t root_span_id = 0;
  /// Parent span for the root (nonzero only for shard-pair requests, whose
  /// roots hang under the sharded request's root).
  uint64_t root_parent_id = 0;
  int64_t submit_ns = 0;
  /// Standing continuous join (JoinRequest::continuous): the request never
  /// enters the worker pool; its phase stays kExecuting while subscribed
  /// and Cancel is the only terminal transition.
  bool continuous = false;
  /// An ExecuteFixed run: its root span says fixed=true in place of the
  /// cache attr submitted requests carry.
  bool fixed = false;
  /// Continuous only. Subscribe (kNone -> kLive) and delivery (-> kEnded)
  /// both go through this one atomic, so the gauge drops once for every
  /// count it gained.
  std::atomic<Subscription> subscription{Subscription::kNone};
  /// Serializes this subscription's delta emission against its Cancel:
  /// every EmitDelta runs under it, and Cancel barrier-locks it after
  /// raising the stop flag, so delivery (which frees the sink) can never
  /// race an in-flight delta burst. A probe that acquires it after the
  /// stop flag rose bails before touching the sink.
  Mutex cont_sink_mutex;
};

namespace {

using RequestStatePtr = std::shared_ptr<internal::RequestState>;

JoinResult CancelledResult() {
  JoinResult result;
  result.status = RequestStatus::kCancelled;
  return result;
}

JoinResult ErrorResult(std::string message) {
  JoinResult result;
  result.status = RequestStatus::kError;
  result.error = std::move(message);
  return result;
}

/// Delivers `result` exactly once: terminal phase, sink OnComplete,
/// completion callback, promise — in that order. Idempotent; safe to call
/// concurrently from the worker's completion notification and from a
/// cancelling thread, because each caller passes a result it owns (the
/// worker its task's state->result, a canceller a local CancelledResult) —
/// shared request state is never mutated outside the delivery claim.
void Deliver(const RequestStatePtr& state, JoinResult&& result) {
  if (state->delivered.exchange(true, std::memory_order_acq_rel)) return;
  if (state->subscription.exchange(Subscription::kEnded) ==
          Subscription::kLive &&
      state->metrics != nullptr) {
    state->metrics->gauge("touch_subscriptions").Add(-1);
  }
  state->phase.store(result.cancelled() ? RequestPhase::kCancelled
                                        : RequestPhase::kCompleted,
                     std::memory_order_release);
  result.trace_id = state->trace_id;
  if (state->metrics != nullptr) {
    state->metrics
        ->counter(std::string("touch_engine_requests_total{status=\"") +
                  RequestStatusName(result.status) + "\"}")
        .Increment();
  }
  if (state->tracer != nullptr) {
    // The root span covers submit → delivery (queue wait included); it is
    // recorded here — by the worker's completion notification or by a
    // prompt queued-cancel — because only delivery knows the outcome.
    if (result.cancelled()) {
      state->tracer->RecordInstant(state->trace_id, state->root_span_id,
                                   "cancelled");
    }
    SpanRecord root;
    root.trace_id = state->trace_id;
    root.span_id = state->root_span_id;
    root.parent_id = state->root_parent_id;
    root.start_ns = state->submit_ns;
    root.duration_ns = TraceClockNs() - state->submit_ns;
    root.thread = CurrentThreadIndex();
    root.name = "request";
    root.attrs.emplace_back("status", RequestStatusName(result.status));
    if (!result.plan.algorithm.empty()) {
      root.attrs.emplace_back("algorithm", result.plan.algorithm);
    }
    if (state->fixed) {
      root.attrs.emplace_back("fixed", "true");
    } else if (result.index_cache_hit) {
      root.attrs.emplace_back("cache", "hit");
    }
    state->tracer->Record(std::move(root));
  }
  try {
    if (state->sink) state->sink->OnComplete(result);
  } catch (...) {
  }
  try {
    if (state->on_complete) state->on_complete(result);
  } catch (...) {
  }
  state->promise.set_value(std::move(result));
  state->sink.reset();
}

/// Ends a standing continuous join as Cancelled — the one teardown shared
/// by Cancel, the engine's destructor, a baseline cut short by its deadline
/// and a subscription whose deadline passed (ended at the next mutation
/// batch). With the stop flag up no *new* delta burst touches the sink;
/// the barrier lock waits out a burst already holding the emission mutex.
/// After it, delivery is safe — the sink can no longer be mid-call. (The
/// subscription list entry is pruned lazily by the next mutation batch,
/// which sees `delivered`.)
void EndSubscription(const RequestStatePtr& state) {
  state->cancel.RequestStop();
  { MutexLock barrier(state->cont_sink_mutex); }
  Deliver(state, CancelledResult());
}

/// RequestHandle::Cancel's core. Requests the cooperative stop; if the
/// request is still queued, additionally claims it (the same CAS the worker
/// would do) and delivers the Cancelled result right here — the future
/// completes promptly and the pool will skip the task. The worker's
/// completion notification may race this delivery; both sides pass their
/// own result object and Deliver's exactly-once guard picks one.
bool CancelRequest(const RequestStatePtr& state) {
  if (state->delivered.load(std::memory_order_acquire)) return false;
  const bool first = state->cancel.RequestStop();
  if (first && state->tracer != nullptr) {
    state->tracer->RecordInstant(state->trace_id, state->root_span_id,
                                 "cancel-requested");
  }
  if (state->continuous) {
    EndSubscription(state);
    return first;
  }
  RequestPhase expected = RequestPhase::kQueued;
  if (state->phase.compare_exchange_strong(expected, RequestPhase::kCancelled,
                                           std::memory_order_acq_rel)) {
    Deliver(state, CancelledResult());
  }
  return first;
}

}  // namespace

// --- RequestHandle / BatchHandle --------------------------------------------

RequestHandle::RequestHandle() = default;
RequestHandle::RequestHandle(RequestHandle&&) noexcept = default;
RequestHandle& RequestHandle::operator=(RequestHandle&&) noexcept = default;
RequestHandle::~RequestHandle() = default;

RequestHandle::RequestHandle(std::shared_ptr<internal::RequestState> state,
                             std::future<JoinResult> future)
    : state_(std::move(state)), future_(std::move(future)) {}

bool RequestHandle::Cancel() {
  if (state_ == nullptr) return false;
  return CancelRequest(state_);
}

bool RequestHandle::cancel_requested() const {
  return state_ != nullptr && state_->cancel.stop_requested();
}

RequestPhase RequestHandle::phase() const {
  if (state_ == nullptr) return RequestPhase::kCompleted;
  return state_->phase.load(std::memory_order_acquire);
}

CancellationToken RequestHandle::token() const {
  if (state_ == nullptr) return {};
  return state_->cancel.token();
}

size_t BatchHandle::CancelAll() {
  size_t cancelled = 0;
  for (RequestHandle& request : requests_) {
    if (request.Cancel()) ++cancelled;
  }
  return cancelled;
}

std::vector<JoinResult> BatchHandle::GetAll() {
  std::vector<JoinResult> results;
  results.reserve(requests_.size());
  for (RequestHandle& request : requests_) results.push_back(request.Get());
  return results;
}

// --- QueryEngine ------------------------------------------------------------

QueryEngine::QueryEngine(const EngineOptions& options)
    : options_(options),
      tracer_(options.tracer),
      metrics_(options.metrics ? options.metrics
                               : std::make_shared<MetricsRegistry>()),
      planner_(options.planner),
      cache_(options.max_cache_bytes),
      feedback_(options.calibration.max_outcomes),
      pool_(options.threads) {
  // Resolve kernel dispatch now, not on the first worker probe: a bad
  // TOUCH_SIMD_LEVEL terminates at engine construction with its diagnostic
  // instead of mid-join on a pool thread.
  ActiveKernels();
  // Which overlap kernel ran: TOUCH's batched gather is vectorized only at
  // AVX2, so local-join time reads differently per level.
  metrics_->SetProvider(
      std::string("touch_simd_level{level=\"") + SimdLevelName() + "\"}",
      MetricType::kGauge, [] { return 1.0; });
  metrics_->gauge("touch_subscriptions");  // exported as 0 until one subscribes
  cache_.RegisterMetricProviders(*metrics_, "touch_cache_");
  metrics_->SetProvider("touch_pool_queue_depth", MetricType::kGauge, [this] {
    return static_cast<double>(pool_.queue_depth());
  });
  metrics_->SetProvider("touch_pool_busy_workers", MetricType::kGauge, [this] {
    return static_cast<double>(pool_.busy_workers());
  });
  metrics_->SetProvider("touch_pool_threads", MetricType::kGauge, [this] {
    return static_cast<double>(pool_.thread_count());
  });
  metrics_->SetProvider(
      "touch_pool_tasks_completed_total", MetricType::kCounter,
      [this] { return static_cast<double>(pool_.tasks_completed()); });
}

QueryEngine::~QueryEngine() {
  // Outstanding continuous subscriptions complete as Cancelled here, so
  // their futures and OnComplete fire exactly once even when the caller
  // never cancelled.
  {
    MutexLock lock(delta_sink_mutex_);
    for (const RequestStatePtr& sub : subs_) EndSubscription(sub);
    subs_.clear();
  }
  // Providers sample cache_/pool_, which die with this engine; a scrape
  // after this point must not reach them. (The pool itself drains after
  // this body, before the members destruct.)
  metrics_->RemoveProvidersWithPrefix("touch_cache_");
  metrics_->RemoveProvidersWithPrefix("touch_pool_");
}

DatasetHandle QueryEngine::RegisterDataset(std::string name, Dataset boxes) {
  return catalog_.Register(std::move(name), std::move(boxes));
}

DatasetHandle QueryEngine::RegisterDataset(std::string name, Dataset boxes,
                                           DatasetStats stats) {
  return catalog_.Register(std::move(name), std::move(boxes),
                           std::move(stats));
}

uint64_t QueryEngine::ApplyMutations(DatasetHandle dataset,
                                     std::span<const Mutation> mutations) {
  if (!catalog_.Contains(dataset)) return 0;
  MutexLock mutation_lock(mutation_mutex_);
  // Mutation batches trace as their own root: they belong to no request,
  // and several requests' artifacts may be invalidated by one batch.
  TraceContext mutate_ctx;
  if (tracer_ != nullptr) {
    mutate_ctx = TraceContext{tracer_.get(), tracer_->NewTraceId(), 0};
  }
  SpanScope mutate_span(mutate_ctx, "mutate");
  std::vector<AppliedMutation> applied;
  const uint64_t version = catalog_.ApplyMutations(dataset, mutations,
                                                   &applied);
  // First post-mutation query must rebuild: drop every ready artifact built
  // against an older version of this dataset (counted as evictions).
  cache_.InvalidateDataset(dataset, version);
  metrics_->counter("touch_mutations_total").Increment(applied.size());
  mutate_span.AddAttr("dataset", catalog_.name(dataset));
  mutate_span.AddAttr("applied", std::to_string(applied.size()));
  mutate_span.AddAttr("version", std::to_string(version));

  // Fold the batch per object — first old box, last new box — so an object
  // mutated repeatedly in one batch is probed once, against its net move.
  std::vector<AppliedMutation> net;
  net.reserve(applied.size());
  {
    std::unordered_map<uint32_t, size_t> slot;
    for (const AppliedMutation& m : applied) {
      const auto [it, fresh] = slot.emplace(m.id, net.size());
      if (fresh) {
        net.push_back(m);
      } else {
        net[it->second].has_new = m.has_new;
        net[it->second].new_box = m.new_box;
      }
    }
    // An insert+delete that nets out inside the batch touches nothing.
    std::erase_if(net, [](const AppliedMutation& m) {
      return !m.had_old && !m.has_new;
    });
  }

  MutexLock sink_lock(delta_sink_mutex_);
  for (auto it = subs_.begin(); it != subs_.end();) {
    internal::RequestState& sub = **it;
    if (sub.delivered.load(std::memory_order_acquire)) {
      it = subs_.erase(it);  // cancelled since the last batch
      continue;
    }
    if (sub.cancel.stop_requested()) {
      // Stopped yet undelivered: its deadline passed since the last batch
      // (a racing Cancel delivers on its own; Deliver runs once either
      // way). The delta probe would skip the sink forever, so the
      // subscription ends here, Cancelled.
      EndSubscription(*it);
      it = subs_.erase(it);
      continue;
    }
    if (!net.empty() &&
        (sub.request.a == dataset || sub.request.b == dataset)) {
      SpanScope probe_span(mutate_span.context(), "delta-probe");
      const Timer probe_timer;
      const DeltaProbeCounts counts = DeltaProbeLocked(sub, dataset, net);
      metrics_->histogram("touch_delta_probe_seconds")
          .Observe(probe_timer.Seconds());
      probe_span.AddAttr("deltas", std::to_string(counts.deltas));
      probe_span.AddAttr("probes", std::to_string(counts.probes));
      metrics_->counter("touch_delta_results_total").Increment(counts.deltas);
    }
    ++it;
  }
  return version;
}

JoinPlan QueryEngine::Plan(const JoinRequest& request) const {
  if (options_.calibration.enabled) {
    const CalibrationSnapshot snapshot =
        feedback_.Snapshot(options_.calibration.min_samples);
    return planner_.Plan(catalog_, request, &snapshot);
  }
  return planner_.Plan(catalog_, request);
}

void QueryEngine::RecordOutcome(const JoinRequest& request,
                                const ExecContext& ctx,
                                const JoinResult& result) {
  if (!options_.calibration.enabled) return;
  // Cache hits skipped (some of) the build the cost models are fitted
  // against; the planner compares cold costs, so only fully cold runs are
  // evidence. Partial hits (one PBSM directory warm, one built) would bias
  // the family's fit downward — and cancelled runs stopped mid-flight, so
  // their timings measure nothing the planner could compare.
  if (!result.ok() || result.index_cache_hit ||
      result.partial_index_cache_hit) {
    return;
  }
  const DatasetStats& stats_a = ctx.snap_a->stats;
  const DatasetStats& stats_b = ctx.snap_b->stats;
  PlanOutcome outcome;
  outcome.family = AlgorithmFamily(result.plan.algorithm);
  outcome.objects = stats_a.count + stats_b.count;
  outcome.results = result.stats.results;
  // The fit feature is the planner's own estimate — see
  // PlanOutcome::estimated_results. Plans that skipped estimation (fixed
  // runs, tiny nl/ps inputs) carry 0 and get it computed here, from the
  // same pinned stats, so every run has the same feature.
  outcome.estimated_results =
      result.plan.expected_results != 0
          ? result.plan.expected_results
          : CombineHistograms(stats_a, stats_b, request.epsilon)
                .expected_results;
  outcome.build_seconds = result.stats.build_seconds;
  outcome.probe_seconds =
      result.stats.assign_seconds + result.stats.join_seconds;
  outcome.total_seconds = result.stats.total_seconds;
  feedback_.Record(outcome);
}

// --- Asynchronous submission ------------------------------------------------

void QueryEngine::EnterPhase(const ExecContext& ctx,
                             RequestPhase phase) const {
  ctx.state->phase.store(phase, std::memory_order_release);
  // One emission point drives both observers: the tracer gets a phase
  // instant under the request root, and the legacy phase_observer hook —
  // now a thin adapter over the same event — gets the enum.
  if (ctx.trace.active()) {
    ctx.trace.tracer->RecordInstant(ctx.trace.trace_id, ctx.trace.span_id,
                                    std::string("phase:") +
                                        RequestPhaseName(phase));
  }
  if (options_.phase_observer) options_.phase_observer(phase);
}

std::shared_ptr<internal::RequestState> QueryEngine::NewRequestState(
    const JoinRequest& request, std::unique_ptr<ResultSink> sink,
    CompletionCallback on_complete) {
  auto state = std::make_shared<internal::RequestState>();
  state->request = request;
  state->sink = std::move(sink);
  state->on_complete = std::move(on_complete);
  state->continuous = request.continuous;
  // A request deadline rides on the cancellation flag: once it passes,
  // every phase boundary and cooperative kernel poll sees a requested stop,
  // so the timeout holds even when nobody waits on the handle.
  const bool has_deadline = request.deadline.time_since_epoch().count() != 0;
  if (has_deadline) state->cancel.SetDeadline(request.deadline);
  state->tracer = tracer_.get();
  state->metrics = metrics_.get();
  state->submit_ns = TraceClockNs();
  if (state->tracer != nullptr) {
    // Adopt the caller's trace identity when it brought one (the sharded
    // engine parenting shard-pair roots under its own), else start fresh.
    state->trace_id = request.trace_id != 0 ? request.trace_id
                                            : state->tracer->NewTraceId();
    state->root_span_id = state->tracer->NewSpanId();
    state->root_parent_id = request.trace_parent_span;
    if (has_deadline) {
      state->tracer->RecordInstant(state->trace_id, state->root_span_id,
                                   "deadline-armed");
    }
  }
  return state;
}

RequestHandle QueryEngine::SubmitInternal(
    std::shared_ptr<internal::RequestState> state) {
  std::future<JoinResult> future = state->promise.get_future();
  // Pre-fill an error so that even an exception escaping ExecuteRequest's
  // own catch blocks (e.g. bad_alloc while building the error string)
  // completes the future as a *failure*, never as a silent empty success;
  // a normal return overwrites it.
  state->result = ErrorResult("execution failed: worker task aborted");
  pool_.Submit(
      [this, state] {
        const int64_t claimed_ns = TraceClockNs();
        metrics_->histogram("touch_engine_queue_wait_seconds")
            .Observe(static_cast<double>(claimed_ns - state->submit_ns) *
                     1e-9);
        ExecContext ctx{state->cancel.token(), state.get(),
                        TraceContext{state->tracer, state->trace_id,
                                     state->root_span_id}};
        if (state->tracer != nullptr) {
          // The queue wait as a span of its own: submit → worker claim.
          SpanRecord wait;
          wait.trace_id = state->trace_id;
          wait.span_id = state->tracer->NewSpanId();
          wait.parent_id = state->root_span_id;
          wait.start_ns = state->submit_ns;
          wait.duration_ns = claimed_ns - state->submit_ns;
          wait.thread = CurrentThreadIndex();
          wait.name = "queue-wait";
          state->tracer->Record(std::move(wait));
        }
        ResultSink null_sink;  // drops pairs; stats.results still counts
        ResultCollector& out =
            state->sink ? static_cast<ResultCollector&>(*state->sink)
                        : null_sink;
        state->result = ExecuteRequest(state->request, out, ctx,
                                       state->preplanned.get());
      },
      // Delivery runs as the pool's completion notification so the future
      // completes even if the task itself escaped. A kCancelled phase here
      // means the should_run claim below lost to a queued-cancel and the
      // task never ran: state->result still holds the pre-filled error
      // sentinel and may be racing the canceller's own delivery, so this
      // side delivers a fresh Cancelled result instead of touching it
      // (Deliver's exactly-once guard picks whichever side gets there
      // first — both carry the same Cancelled content).
      [state] {
        if (state->phase.load(std::memory_order_acquire) ==
            RequestPhase::kCancelled) {
          Deliver(state, CancelledResult());
        } else {
          Deliver(state, std::move(state->result));
        }
      },
      // Claiming the request is the worker's kQueued→kPlanning transition;
      // losing the CAS means a queued-cancel already delivered the result,
      // and the task is skipped without burning the worker.
      [state] {
        RequestPhase expected = RequestPhase::kQueued;
        return state->phase.compare_exchange_strong(
            expected, RequestPhase::kPlanning, std::memory_order_acq_rel);
      });
  return RequestHandle(std::move(state), std::move(future));
}

RequestHandle QueryEngine::Submit(const JoinRequest& request,
                                  std::unique_ptr<ResultSink> sink) {
  return Submit(request, std::move(sink), nullptr);
}

RequestHandle QueryEngine::Submit(const JoinRequest& request,
                                  std::unique_ptr<ResultSink> sink,
                                  CompletionCallback on_complete) {
  auto state = NewRequestState(request, std::move(sink),
                               std::move(on_complete));
  if (request.continuous) return SubmitContinuous(std::move(state));
  return SubmitInternal(std::move(state));
}

RequestHandle QueryEngine::SubmitPlanned(JoinPlan plan,
                                         const JoinRequest& request,
                                         std::unique_ptr<ResultSink> sink) {
  if (request.continuous) {
    // A standing query has no one-shot plan to execute; the scatter path
    // never sets the flag, so reject rather than silently drop the plan.
    return SubmitContinuous(NewRequestState(request, nullptr, nullptr));
  }
  auto state = NewRequestState(request, std::move(sink), nullptr);
  state->preplanned = std::make_unique<JoinPlan>(std::move(plan));
  return SubmitInternal(std::move(state));
}

BatchHandle QueryEngine::SubmitBatch(std::span<const JoinRequest> requests,
                                     const SinkFactory& make_sink) {
  BatchHandle batch;
  batch.requests_.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    batch.requests_.push_back(
        Submit(requests[i], make_sink ? make_sink(i) : nullptr, nullptr));
  }
  return batch;
}

// --- Continuous joins -------------------------------------------------------

namespace {

/// One delta a probe found, held until the round's catalog lock is
/// released.
struct PendingDelta {
  DeltaKind kind;
  uint32_t a_id;
  uint32_t b_id;
};

/// Objects per round: one catalog lock, then one emission pass, which
/// bounds the lock's hold time and the deltas held at once.
constexpr size_t kProbeRound = 4096;

}  // namespace

template <typename Probe>
size_t QueryEngine::ProbeInOrder(DatasetHandle partner, size_t n,
                                 const CancellationSource& cancel,
                                 ResultSink& sink, const Probe& probe) {
  size_t emitted = 0;
  std::vector<PendingDelta> deltas;
  std::vector<size_t> ends;  // ends[k] closes the k-th object's run
  for (size_t round = 0; round < n; round += kProbeRound) {
    const size_t round_end = std::min(n, round + kProbeRound);
    deltas.clear();
    ends.clear();
    catalog_.ReadTree(partner, [&](const DynamicRTree& tree) {
      for (size_t i = round; i < round_end; ++i) {
        if (cancel.stop_requested()) return;
        probe(i, tree, deltas);
        ends.push_back(deltas.size());
      }
    });
    size_t begin = 0;
    for (const size_t end : ends) {
      // Cooperative cancellation between objects: a standing query being
      // torn down must not hold the mutation path for the whole burst.
      if (cancel.stop_requested()) return emitted;
      for (size_t k = begin; k < end; ++k) {
        sink.EmitDelta(deltas[k].kind, deltas[k].a_id, deltas[k].b_id);
      }
      emitted += end - begin;
      begin = end;
    }
    if (ends.size() < round_end - round) return emitted;  // a stop cut it
  }
  return emitted;
}

RequestHandle QueryEngine::SubmitContinuous(
    std::shared_ptr<internal::RequestState> state) {
  const JoinRequest& request = state->request;
  RequestHandle handle(state, state->promise.get_future());
  // Validation failures deliver an error result through the normal path, so
  // the future, sink OnComplete and completion callback all still fire.
  if (state->sink == nullptr) {
    Deliver(state, ErrorResult("continuous join requires a result sink "
                               "(deltas have nowhere to go)"));
    return handle;
  }
  if (!catalog_.Contains(request.a) || !catalog_.Contains(request.b)) {
    Deliver(state, ErrorResult("invalid dataset handle (catalog has " +
                               std::to_string(catalog_.size()) +
                               " datasets)"));
    return handle;
  }
  if (request.a == request.b) {
    Deliver(state, ErrorResult(
                       "continuous join requires two distinct datasets"));
    return handle;
  }
  state->phase.store(RequestPhase::kExecuting, std::memory_order_release);

  // The baseline runs under the mutation serialization: no batch can land
  // between "current pair set emitted" and "subscribed for deltas", so the
  // caller's folded view is the full join at every instant.
  MutexLock mutation_lock(mutation_mutex_);
  TraceContext root{state->tracer, state->trace_id, state->root_span_id};
  SpanScope baseline_span(root, "baseline-join");
  const DatasetSnapshotPtr snap_a = catalog_.snapshot(request.a);
  size_t deltas = 0;
  {
    MutexLock emit_lock(state->cont_sink_mutex);
    deltas = ProbeInOrder(
        request.b, snap_a->boxes.size(), state->cancel, *state->sink,
        [&](size_t slot, const DynamicRTree& tree,
            std::vector<PendingDelta>& out) {
          const uint32_t a_id = snap_a->id_of(slot);
          tree.Query(snap_a->boxes[slot].Enlarged(request.epsilon),
                     [&](uint32_t b_id, const Box&) {
                       out.push_back({DeltaKind::kAdded, a_id, b_id});
                     });
        });
  }
  baseline_span.AddAttr("deltas", std::to_string(deltas));
  baseline_span.End();
  metrics_->counter("touch_delta_results_total").Increment(deltas);
  if (state->cancel.stop_requested()) {
    // Deadline (or a racing Cancel) fired during the baseline: complete now
    // instead of subscribing a dead query.
    EndSubscription(state);
    return handle;
  }
  MutexLock sink_lock(delta_sink_mutex_);
  Gauge& live = metrics_->gauge("touch_subscriptions");
  live.Add(1);
  Subscription unsubscribed = Subscription::kNone;
  if (!state->subscription.compare_exchange_strong(unsubscribed,
                                                   Subscription::kLive)) {
    live.Add(-1);  // a racing Cancel delivered it after the baseline
  }
  subs_.push_back(std::move(state));
  return handle;
}

QueryEngine::DeltaProbeCounts QueryEngine::DeltaProbeLocked(
    internal::RequestState& state, DatasetHandle mutated,
    std::span<const AppliedMutation> net) {
  const bool mutated_is_a = state.request.a == mutated;
  const DatasetHandle partner =
      mutated_is_a ? state.request.b : state.request.a;
  const float epsilon = state.request.epsilon;
  MutexLock emit_lock(state.cont_sink_mutex);
  // A Cancel that raised the stop flag before we took the emission lock may
  // already be past its barrier and freeing the sink — the flag check must
  // come before any sink access, and a mid-burst stop only ends the
  // emission (the canceller is then still parked on the barrier, so the
  // sink stays alive until we release).
  if (state.cancel.stop_requested() ||
      state.delivered.load(std::memory_order_acquire)) {
    return {};
  }
  DeltaProbeCounts counts;
  std::vector<uint32_t> old_ids;  // reused across the objects
  std::vector<uint32_t> new_ids;
  const auto probe = [&](size_t i, const DynamicRTree& tree,
                         std::vector<PendingDelta>& out) {
    const AppliedMutation& m = net[i];
    old_ids.clear();
    new_ids.clear();
    // The epsilon window moves with the object: pairs live in the old
    // window, the new window, or both. Enlarging the moved side is
    // equivalent to enlarging the partner (closed-box intersection is
    // symmetric under enlargement), so one probe orientation serves both.
    const Box old_win = m.old_box.Enlarged(epsilon);
    const Box new_win = m.new_box.Enlarged(epsilon);
    if (m.had_old && m.has_new && Intersects(old_win, new_win)) {
      // A short move: one traversal of the windows' union, each hit then
      // sorted by the very leaf test a probe of either window applies, so
      // both id lists are exactly the two probes' answers.
      tree.Query(Union(old_win, new_win), [&](uint32_t id, const Box& box) {
        if (Intersects(box, old_win)) old_ids.push_back(id);
        if (Intersects(box, new_win)) new_ids.push_back(id);
      });
      ++counts.probes;
    } else {
      if (m.had_old) {
        tree.Query(old_win,
                   [&](uint32_t id, const Box&) { old_ids.push_back(id); });
        ++counts.probes;
      }
      if (m.has_new) {
        tree.Query(new_win,
                   [&](uint32_t id, const Box&) { new_ids.push_back(id); });
        ++counts.probes;
      }
    }
    std::sort(old_ids.begin(), old_ids.end());
    std::sort(new_ids.begin(), new_ids.end());
    const auto emit = [&](DeltaKind kind, uint32_t partner_id) {
      out.push_back(mutated_is_a ? PendingDelta{kind, m.id, partner_id}
                                 : PendingDelta{kind, partner_id, m.id});
    };
    // Merge-diff: in-old-only pairs left the result set, in-new-only pairs
    // entered it, in-both pairs persist and emit nothing.
    size_t oi = 0;
    size_t ni = 0;
    while (oi < old_ids.size() || ni < new_ids.size()) {
      if (ni == new_ids.size() ||
          (oi < old_ids.size() && old_ids[oi] < new_ids[ni])) {
        emit(DeltaKind::kRemoved, old_ids[oi]);
        ++oi;
      } else if (oi == old_ids.size() || new_ids[ni] < old_ids[oi]) {
        emit(DeltaKind::kAdded, new_ids[ni]);
        ++ni;
      } else {
        ++oi;
        ++ni;
      }
    }
  };
  counts.deltas =
      ProbeInOrder(partner, net.size(), state.cancel, *state.sink, probe);
  return counts;
}

// --- Synchronous wrappers ---------------------------------------------------

JoinResult QueryEngine::Execute(const JoinRequest& request,
                                ResultCollector& out) {
  if (request.continuous) {
    return ErrorResult(
        "a continuous join has no final result to wait for; Submit it with "
        "a sink and Cancel it to end the subscription");
  }
  return Submit(request, std::make_unique<ForwardingSink>(out)).Get();
}

std::vector<JoinResult> QueryEngine::ExecuteBatch(
    std::span<const JoinRequest> requests) {
  return SubmitBatch(requests).GetAll();
}

JoinResult QueryEngine::ExecuteFixed(const std::string& algorithm,
                                     const JoinRequest& request,
                                     ResultCollector& out) {
  // Execute plans "auto" and rejects continuous requests.
  if (algorithm == "auto" || request.continuous) return Execute(request, out);
  if (!catalog_.Contains(request.a) || !catalog_.Contains(request.b)) {
    return ErrorResult("invalid dataset handle (catalog has " +
                       std::to_string(catalog_.size()) + " datasets)");
  }
  if (MakeAlgorithm(algorithm) == nullptr) {
    return ErrorResult(UnknownAlgorithmMessage(algorithm));
  }
  // The fixed plan builds on the smaller side; it then runs like any
  // SubmitPlanned request. Fixed runs are evidence too — they are how
  // callers (and the planner benchmark) teach the calibrator about families
  // the static rules would never pick on a workload.
  auto plan = std::make_unique<JoinPlan>();
  plan->algorithm = algorithm;
  plan->build_on_a = catalog_.snapshot(request.a)->stats.count <=
                     catalog_.snapshot(request.b)->stats.count;
  plan->touch.join_order = plan->build_on_a
                               ? TouchOptions::JoinOrder::kBuildOnA
                               : TouchOptions::JoinOrder::kBuildOnB;
  plan->rationale = "algorithm fixed by caller";
  auto state = NewRequestState(request, std::make_unique<ForwardingSink>(out),
                               nullptr);
  state->preplanned = std::move(plan);
  state->fixed = true;
  return SubmitInternal(std::move(state)).Get();
}

// --- Execution core ---------------------------------------------------------

JoinResult QueryEngine::ExecuteRequest(const JoinRequest& request,
                                       ResultCollector& out,
                                       const ExecContext& ctx,
                                       const JoinPlan* preplanned) {
  // Boundary check: cancelled while queued but claimed by the worker before
  // the canceller could deliver promptly.
  if (ctx.cancel.stop_requested()) return CancelledResult();
  if (!catalog_.Contains(request.a) || !catalog_.Contains(request.b)) {
    return ErrorResult("invalid dataset handle (catalog has " +
                       std::to_string(catalog_.size()) + " datasets)");
  }
  // Pin both datasets for the request's whole execution: geometry, stats
  // and cache-key versions all come from these snapshots, so a mutation
  // batch landing mid-request affects the *next* request, never this one.
  ExecContext pinned = ctx;
  pinned.snap_a = catalog_.snapshot(request.a);
  pinned.snap_b = catalog_.snapshot(request.b);
  // Failures (e.g. an index build running out of memory) become per-request
  // errors instead of escaping — a batch must not die for one bad join, and
  // a submitted future must always complete with a result.
  try {
    EnterPhase(pinned, RequestPhase::kPlanning);
    JoinPlan plan;
    if (preplanned != nullptr) {
      // Scattered shard pairs and fixed runs execute the plan they arrived
      // with; a shard pair's "plan" span lives at the scatter site that
      // computed it.
      plan = *preplanned;
    } else {
      SpanScope plan_span(pinned.trace, "plan");
      Timer plan_timer;
      // Plan from the *pinned* stats (not a fresh catalog read), so the
      // plan and the execution below describe the same dataset version.
      if (options_.calibration.enabled) {
        const CalibrationSnapshot snapshot =
            feedback_.Snapshot(options_.calibration.min_samples);
        plan = planner_.Plan(pinned.snap_a->stats, pinned.snap_b->stats,
                             request.epsilon, &snapshot);
      } else {
        plan = planner_.Plan(pinned.snap_a->stats, pinned.snap_b->stats,
                             request.epsilon);
      }
      metrics_->histogram("touch_engine_plan_seconds")
          .Observe(plan_timer.Seconds());
      plan_span.AddAttr("algorithm", plan.algorithm);
      plan_span.AddAttr("family", AlgorithmFamily(plan.algorithm));
      if (plan.calibrated) {
        plan_span.AddAttr("calibrated", "true");
        plan_span.AddAttr("predicted_seconds",
                          std::to_string(plan.predicted_seconds));
        if (plan.static_algorithm != plan.algorithm) {
          plan_span.AddAttr("static_algorithm", plan.static_algorithm);
        }
      }
    }
    metrics_
        ->counter(std::string("touch_engine_plans_total{family=\"") +
                  AlgorithmFamily(plan.algorithm) + "\"}")
        .Increment();
    // Boundary: planned → index build.
    if (ctx.cancel.stop_requested()) return CancelledResult();
    // Time-to-first-Emit is measured here for every algorithm. The kernels
    // emit dense slot indices; while a dataset keeps slot/id identity
    // (never mutated, or mutated append-only) that already *is* the object
    // id, and once a delete has swapped slots around the pairs are remapped
    // on the way out, so callers always see stable ids.
    const Timer exec_clock;
    FirstEmitCollector first_emit(out, pinned.trace, exec_clock);
    RemapCollector remapped(first_emit, *pinned.snap_a, *pinned.snap_b);
    ResultCollector& collector =
        pinned.snap_a->identity_ids() && pinned.snap_b->identity_ids()
            ? static_cast<ResultCollector&>(first_emit)
            : remapped;
    const internal::ArtifactFamily* family = FamilyFor(plan.algorithm);
    JoinResult result =
        family != nullptr
            ? ExecuteCached(*family, std::move(plan), request, collector,
                            pinned, exec_clock)
            : ExecuteUncached(std::move(plan), request, collector, pinned,
                              exec_clock);
    if (first_emit.seen()) {
      result.stats.first_result_seconds = first_emit.elapsed_seconds();
    }
    if (result.ok() && result.stats.first_result_seconds > 0.0) {
      metrics_->histogram("touch_engine_first_result_seconds")
          .Observe(result.stats.first_result_seconds);
    }
    // One flag for every executor: a request whose cancel fired mid-run
    // (the kernels bail cooperatively) or right at the end reports
    // Cancelled — its sink may have seen partial pairs either way.
    if (result.ok() && ctx.cancel.stop_requested()) {
      result.status = RequestStatus::kCancelled;
    }
    RecordOutcome(request, pinned, result);
    return result;
  } catch (const std::exception& e) {
    return ErrorResult(std::string("execution failed: ") + e.what());
  } catch (...) {
    return ErrorResult("execution failed: unknown error");
  }
}

JoinResult QueryEngine::ExecuteCached(const internal::ArtifactFamily& family,
                                      JoinPlan plan,
                                      const JoinRequest& request,
                                      ResultCollector& out,
                                      const ExecContext& ctx,
                                      const Timer& total) {
  JoinResult result;
  HelperSet build_helpers;
  const FamilyInput in{plan,        request, *ctx.snap_a,
                       *ctx.snap_b, pool_,   build_helpers};
  const std::vector<ArtifactNeed> needs = family.needs(in);
  if (needs.empty()) {
    result.stats.total_seconds = total.Seconds();
    result.plan = std::move(plan);
    return result;
  }
  EnterPhase(ctx, RequestPhase::kBuildingIndex);
  SpanScope build_span(ctx.trace, "build-index");
  build_span.AddAttr("kind", family.kind);
  Timer build_phase;
  std::vector<IndexCache::ArtifactPtr> artifacts;
  artifacts.reserve(needs.size());
  size_t misses = 0;
  double build_seconds = 0.0;
  for (const ArtifactNeed& need : needs) {
    bool missed = false;
    IndexCache::ArtifactPtr artifact =
        cache_.GetOrBuild(need.key, [&]() -> IndexCache::ArtifactPtr {
          missed = true;
          return family.build(in, need);
        });
    if (family.fits != nullptr && !family.fits(in, artifact)) {
      missed = true;
      artifact = family.build(in, need);
    }
    if (missed) {
      ++misses;
      build_seconds += artifact->build_seconds;
    }
    artifacts.push_back(std::move(artifact));
  }
  result.index_cache_hit = misses == 0;
  result.partial_index_cache_hit = misses > 0 && misses < needs.size();
  build_span.AddAttr("cache", result.index_cache_hit ? "hit"
                              : result.partial_index_cache_hit ? "partial"
                                                               : "miss");
  build_span.AddAttr("helpers", std::to_string(build_helpers.count()));
  build_span.End();
  metrics_->histogram("touch_engine_build_seconds")
      .Observe(build_phase.Seconds());
  // Boundary: index build → execute. Builds are shared artifacts and always
  // run to completion (they stay cached for other requests); a cancel that
  // arrived mid-build takes effect here.
  if (ctx.cancel.stop_requested()) {
    result.status = RequestStatus::kCancelled;
    result.plan = std::move(plan);
    return result;
  }
  EnterPhase(ctx, RequestPhase::kExecuting);
  SpanScope exec_span(ctx.trace, "execute");
  exec_span.AddAttr("algorithm", plan.algorithm);
  Timer exec_timer;
  result.stats = family.probe(in, artifacts, out, ctx.cancel);
  exec_span.End();
  metrics_->histogram("touch_engine_execute_seconds")
      .Observe(exec_timer.Seconds());
  if (family.artifact_bytes) {
    result.stats.memory_bytes = 0;
    for (const IndexCache::ArtifactPtr& artifact : artifacts) {
      result.stats.memory_bytes += artifact->MemoryUsageBytes();
    }
  }
  // A miss pays the build it triggered; a hit reuses the cached artifact
  // for free — the productized section-4.3 shortcut.
  result.stats.build_seconds = build_seconds;
  result.stats.total_seconds = total.Seconds();
  result.plan = std::move(plan);
  return result;
}

JoinResult QueryEngine::ExecuteUncached(JoinPlan plan,
                                        const JoinRequest& request,
                                        ResultCollector& out,
                                        const ExecContext& ctx,
                                        const Timer& total) {
  JoinResult result;
  AlgorithmConfig config;
  config.touch = plan.touch;
  std::unique_ptr<SpatialJoinAlgorithm> algorithm =
      MakeAlgorithm(plan.algorithm, config);
  if (algorithm == nullptr) {
    return ErrorResult(UnknownAlgorithmMessage(plan.algorithm));
  }
  // The uncached algorithms (nl, ps, the R-tree zoo) have no cooperative
  // hooks: a cancel takes effect at the next phase boundary, i.e. after the
  // join. The planner only sends small inputs here, so the latency gap is
  // bounded by design.
  EnterPhase(ctx, RequestPhase::kExecuting);
  SpanScope exec_span(ctx.trace, "execute");
  exec_span.AddAttr("algorithm", plan.algorithm);
  Timer exec_timer;
  const Dataset& a = ctx.snap_a->boxes;
  const Dataset& b = ctx.snap_b->boxes;
  // Orientation-sensitive algorithms get swapped inputs when the plan
  // builds on B; the symmetric ones are always planned with build_on_a. A
  // distance join may enlarge either side, so swapping keeps the same
  // result set.
  if (plan.build_on_a) {
    result.stats = DistanceJoin(*algorithm, a, b, request.epsilon, out);
  } else {
    SwappedCollector swapped(out);
    result.stats = DistanceJoin(*algorithm, b, a, request.epsilon, swapped);
  }
  exec_span.End();
  metrics_->histogram("touch_engine_execute_seconds")
      .Observe(exec_timer.Seconds());
  result.stats.total_seconds = total.Seconds();
  result.plan = std::move(plan);
  return result;
}

}  // namespace touch
