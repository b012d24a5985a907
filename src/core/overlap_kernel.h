#ifndef TOUCH_CORE_OVERLAP_KERNEL_H_
#define TOUCH_CORE_OVERLAP_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geom/box.h"
#include "join/algorithm.h"
#include "util/cancellation.h"
#include "util/simd.h"
#include "util/stats.h"

namespace touch {

class RTree;

/// Batched epsilon-overlap kernels: the one instruction every join in this
/// repo bottlenecks on — `Intersects(enlarged_box, candidate)` — restructured
/// so 4–8 candidates are tested per SIMD instruction instead of one per
/// branchy scalar call.
///
/// The shape is always the same: candidates are gathered once into a BoxSlab
/// (structure-of-arrays: six 64-byte-aligned coordinate arrays in one arena
/// allocation, epsilon folded in at store time), and a query box is tested
/// against a contiguous slab range with branch-free mask extraction. Every
/// kernel has a scalar reference twin (`...Scalar`) with identical
/// semantics; tests/overlap_kernel_test.cc holds every runtime-available
/// level to bit-identical results against the scalar twins within one
/// binary.
///
/// Dispatch is at RUNTIME: the entry points below forward through the
/// active OverlapKernelTable, selected at first use from cpuid feature
/// detection (widest supported ISA wins) or forced narrower via
/// ForceSimdLevel / the TOUCH_SIMD_LEVEL environment variable / the CLI's
/// --simd= flag. One shipped binary carries every ISA its architecture can
/// express; per-ISA code lives in overlap_kernel_{scalar,sse2,avx2,neon}.cc
/// (each a thin wrapper around overlap_kernel_impl.h compiled with that
/// ISA's flags).
///
/// Contract shared by all kernels:
///  - hit indices are appended in ascending order (so consumers that used
///    to emit from an ascending scalar loop keep their emit order);
///  - comparison counts returned/accumulated are *scalar-identical*: the
///    number of candidates the reference loop would have examined,
///    including its early exits — never the number of SIMD lanes touched —
///    so JoinStats stays byte-comparable across forced dispatch levels
///    within one process (and across machines with different ISAs);
///  - padded tail lanes are masked off structurally (not just by sentinel
///    coordinates), so even a query box spanning ±infinity cannot produce
///    phantom hits.

/// Structure-of-arrays slab of candidate boxes. Arrays are 64-byte-aligned,
/// live in one reusable arena allocation, and are padded to the SIMD chunk
/// size with never-overlapping sentinel boxes (lo=+inf, hi=-inf). Assigning
/// with an epsilon stores the Minkowski-enlarged coordinates (`lo - eps`,
/// `hi + eps` — the exact float ops of Box::Enlarged), which is how a
/// distance join's enlargement is paid once per slab build instead of once
/// per comparison.
class BoxSlab {
 public:
  /// Arrays are padded to a multiple of this many floats (covers the widest
  /// SIMD level and keeps every array 64-byte aligned).
  static constexpr size_t kPad = 16;

  /// slab[i] = boxes[i], enlarged by epsilon.
  void Assign(std::span<const Box> boxes, float epsilon = 0.0f) {
    AssignGenerated(
        boxes.size(), [boxes](size_t i) { return boxes[i]; }, epsilon);
  }

  /// slab[i] = boxes[ids[i]], enlarged by epsilon (candidate gather).
  void AssignGather(std::span<const Box> boxes, std::span<const uint32_t> ids,
                    float epsilon = 0.0f) {
    AssignGenerated(
        ids.size(), [boxes, ids](size_t i) { return boxes[ids[i]]; }, epsilon);
  }

  /// slab[i] = fn(i) for i in [0, count): the generic builder behind the
  /// other Assign forms.
  template <typename BoxFn>
  void AssignGenerated(size_t count, BoxFn&& fn, float epsilon = 0.0f) {
    Resize(count);
    FillGenerated(0, count, fn, epsilon);
  }

  /// slab[i] = fn(i), enlarged by epsilon, for i in [begin, end) of a slab
  /// sized by Resize. Disjoint ranges may be filled on different threads.
  template <typename BoxFn>
  void FillGenerated(size_t begin, size_t end, BoxFn&& fn,
                     float epsilon = 0.0f) {
    if (epsilon == 0.0f) {
      // Store the raw coordinates, not `x ± 0.0f` — adding a zero flips the
      // sign of -0.0f and would break bit-exact round-trips against the
      // scalar paths, which use the un-enlarged boxes directly.
      for (size_t i = begin; i < end; ++i) Set(i, fn(i));
      return;
    }
    for (size_t i = begin; i < end; ++i) {
      const Box box = fn(i);
      lo_x_[i] = box.lo.x - epsilon;
      lo_y_[i] = box.lo.y - epsilon;
      lo_z_[i] = box.lo.z - epsilon;
      hi_x_[i] = box.hi.x + epsilon;
      hi_y_[i] = box.hi.y + epsilon;
      hi_z_[i] = box.hi.z + epsilon;
    }
  }

  /// slab[i] = box, raw: the store of a slab edited box by box.
  void Set(size_t i, const Box& box) {
    lo_x_[i] = box.lo.x;
    lo_y_[i] = box.lo.y;
    lo_z_[i] = box.lo.z;
    hi_x_[i] = box.hi.x;
    hi_y_[i] = box.hi.y;
    hi_z_[i] = box.hi.z;
  }

  /// Resize that keeps the first min(size(), count) boxes (Resize leaves
  /// them undefined): the growth step of a slab edited in place.
  void ResizeKeep(size_t count) {
    BoxSlab grown;
    grown.Resize(count);
    const size_t keep = std::min(size_, count);
    std::copy_n(lo_x_, keep, grown.lo_x_);
    std::copy_n(lo_y_, keep, grown.lo_y_);
    std::copy_n(lo_z_, keep, grown.lo_z_);
    std::copy_n(hi_x_, keep, grown.hi_x_);
    std::copy_n(hi_y_, keep, grown.hi_y_);
    std::copy_n(hi_z_, keep, grown.hi_z_);
    *this = std::move(grown);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Exact reconstruction of the stored (epsilon-enlarged) box: the floats
  /// round-trip bit-identically, so ReferencePoint() and sweep-order
  /// comparisons computed from a slab match the scalar path.
  Box BoxAt(size_t i) const {
    return Box(Vec3(lo_x_[i], lo_y_[i], lo_z_[i]),
               Vec3(hi_x_[i], hi_y_[i], hi_z_[i]));
  }

  const float* lo_x() const { return lo_x_; }
  const float* lo_y() const { return lo_y_; }
  const float* lo_z() const { return lo_z_; }
  const float* hi_x() const { return hi_x_; }
  const float* hi_y() const { return hi_y_; }
  const float* hi_z() const { return hi_z_; }

  /// Bytes held by the arena (capacity-based, deterministic in the sequence
  /// of Assign sizes — see AlignedArena).
  size_t MemoryUsageBytes() const { return arena_.MemoryUsageBytes(); }

  /// Sizes the slab for `count` boxes and sets the padding; the boxes
  /// themselves are left for FillGenerated.
  void Resize(size_t count) {
    size_ = count;
    // Pad so the last real element's chunk can always be loaded in full:
    // a W-lane load starting at index size-1 stays inside the arrays.
    stride_ = (count + kPad + kPad - 1) & ~(kPad - 1);
    float* base = arena_.Reserve(6 * stride_);
    lo_x_ = base;
    hi_x_ = base + stride_;
    lo_y_ = base + 2 * stride_;
    hi_y_ = base + 3 * stride_;
    lo_z_ = base + 4 * stride_;
    hi_z_ = base + 5 * stride_;
    constexpr float kInf = std::numeric_limits<float>::infinity();
    for (size_t i = count; i < stride_; ++i) {
      lo_x_[i] = kInf;
      lo_y_[i] = kInf;
      lo_z_[i] = kInf;
      hi_x_[i] = -kInf;
      hi_y_[i] = -kInf;
      hi_z_[i] = -kInf;
    }
  }

 private:
  simd::AlignedArena arena_;
  float* lo_x_ = nullptr;
  float* hi_x_ = nullptr;
  float* lo_y_ = nullptr;
  float* hi_y_ = nullptr;
  float* lo_z_ = nullptr;
  float* hi_z_ = nullptr;
  size_t size_ = 0;
  size_t stride_ = 0;
};

/// Scalar reference for one slab element — THE overlap semantics (closed
/// boxes, NaN never matches) the SIMD paths are held to.
inline bool SlabOverlapScalar(const BoxSlab& slab, size_t i, const Box& q) {
  return q.lo.x <= slab.hi_x()[i] && slab.lo_x()[i] <= q.hi.x &&
         q.lo.y <= slab.hi_y()[i] && slab.lo_y()[i] <= q.hi.y &&
         q.lo.z <= slab.hi_z()[i] && slab.lo_z()[i] <= q.hi.z;
}

/// Appends the ascending slab indices in [begin, end) whose boxes overlap
/// `query` to `hits` (not cleared). Returns the number of candidates
/// examined (== end - begin), the consumer's `comparisons` increment.
size_t CollectOverlaps(const BoxSlab& slab, size_t begin, size_t end,
                       const Box& query, std::vector<uint32_t>& hits);
size_t CollectOverlapsScalar(const BoxSlab& slab, size_t begin, size_t end,
                             const Box& query, std::vector<uint32_t>& hits);

/// Plane-sweep inner loop: the slab range must be sorted ascending by lo_x.
/// Scans from `begin`, stopping at the first candidate whose lo_x exceeds
/// query.hi.x; appends overlapping indices. Returns the number of
/// candidates with lo_x <= query.hi.x — exactly the comparisons the scalar
/// sweep counts before its break.
size_t CollectOverlapsUntilBeyondX(const BoxSlab& slab, size_t begin,
                                   size_t end, const Box& query,
                                   std::vector<uint32_t>& hits);
size_t CollectOverlapsUntilBeyondXScalar(const BoxSlab& slab, size_t begin,
                                         size_t end, const Box& query,
                                         std::vector<uint32_t>& hits);

/// TOUCH-assignment classifier: how many boxes in [begin, end) overlap
/// `query` — 0, 1 (with *first = its slab index), or 2 meaning "two or
/// more" (with *first = the first hit; the scan stops at the second hit,
/// like Algorithm 3's descent). *examined accumulates the scalar-identical
/// candidate count: end - begin when fewer than two hits, or the position
/// one past the second hit.
int ClassifyOverlaps(const BoxSlab& slab, size_t begin, size_t end,
                     const Box& query, size_t* first, uint64_t* examined);
int ClassifyOverlapsScalar(const BoxSlab& slab, size_t begin, size_t end,
                           const Box& query, size_t* first,
                           uint64_t* examined);

/// Gather variant for the TOUCH grid local join: candidates are the slab
/// positions listed in `positions` (the occupants of a row of cells, any
/// order). Appends the ascending *indices into `positions`* whose boxes
/// overlap, so the caller knows which list entry (and so which cell) hit.
/// Returns positions.size() (every occupant is one comparison, as in the
/// scalar cell loop).
size_t CollectOverlapsGather(const BoxSlab& slab,
                             std::span<const uint32_t> positions,
                             const Box& query, std::vector<uint32_t>& hits);
size_t CollectOverlapsGatherScalar(const BoxSlab& slab,
                                   std::span<const uint32_t> positions,
                                   const Box& query,
                                   std::vector<uint32_t>& hits);

/// The INL probe kernel: probes every query box (enlarged on the fly by
/// probe_epsilon when > 0) through the tree, testing each inner node's child
/// range of tree.node_mbrs() and each leaf's range of `items`, where
/// items[i] is the box of tree.item_ids()[i] (AssignGather), emitting
/// (item_id, query_id) — or (query_id, item_id) when swap_emit — into `out`
/// in the exact DFS order of RTree::Query. Counts object tests in
/// stats->comparisons, node tests in stats->node_comparisons, and emitted
/// pairs in stats->results. Polls `cancel` at an amortized power-of-two
/// stride of queries. Returns the number of queries fully probed.
uint64_t BatchedTreeProbe(const RTree& tree, const BoxSlab& items,
                          std::span<const Box> queries, float probe_epsilon,
                          bool swap_emit, JoinStats* stats,
                          ResultCollector& out,
                          CancellationToken cancel = {});

/// Below this many candidate ids the header-template local joins keep their
/// scalar loops: a slab build costs one pass over the candidates, which
/// only amortizes when the join examines them more than a few times.
inline constexpr size_t kBatchedLocalJoinMinIds = 16;

/// Per-thread scratch (slabs + hit buffer) reused by the local-join
/// templates in join/local_join.h, so per-cell slab builds allocate nothing
/// once warm. Never shared across threads.
struct OverlapScratch {
  BoxSlab slab_a;
  BoxSlab slab_b;
  std::vector<uint32_t> hits;
};
OverlapScratch& ThreadLocalOverlapScratch();

// --- Runtime dispatch seam ---------------------------------------------------

/// One per-ISA kernel set. Each per-ISA translation unit exports exactly
/// one immutable table; the dispatcher installs a pointer to the active one
/// and the entry points above forward through it. Tables are static-storage
/// constants, so a stale pointer read during a concurrent ForceSimdLevel is
/// still a valid (just previously-selected) kernel set.
struct OverlapKernelTable {
  simd::Level level;
  int width;  // float lanes per batch (simd::LevelWidth(level))
  size_t (*collect)(const BoxSlab&, size_t, size_t, const Box&,
                    std::vector<uint32_t>&);
  size_t (*sweep)(const BoxSlab&, size_t, size_t, const Box&,
                  std::vector<uint32_t>&);
  int (*classify)(const BoxSlab&, size_t, size_t, const Box&, size_t*,
                  uint64_t*);
  size_t (*gather)(const BoxSlab&, std::span<const uint32_t>, const Box&,
                   std::vector<uint32_t>&);
  uint64_t (*tree_probe)(const RTree&, const BoxSlab&,
                         std::span<const Box>, float, bool, JoinStats*,
                         ResultCollector&, CancellationToken);
};

namespace internal {
/// Per-ISA table getters, defined by the matching kernel TU. Only the
/// architecture's own getters exist (x86: scalar/sse2/avx2; ARM:
/// scalar/neon) — the dispatcher references them behind the same
/// architecture guards as simd::LevelCompiledIn.
const OverlapKernelTable& KernelTableScalar();
const OverlapKernelTable& KernelTableSse2();
const OverlapKernelTable& KernelTableAvx2();
const OverlapKernelTable& KernelTableNeon();
}  // namespace internal

/// The active kernel table. First use resolves it: TOUCH_SIMD_LEVEL in the
/// environment (if set and not "auto") wins — an impossible request (level
/// not compiled in, or CPU lacks it) prints a clear diagnostic and
/// terminates the process, so a forced CI leg can never silently run a
/// different ISA — otherwise the widest cpuid-supported level is installed.
const OverlapKernelTable& ActiveKernels();

/// The resolved dispatch level (== ActiveKernels().level).
simd::Level ActiveSimdLevel();

/// Forces the dispatch level for this process (the seam behind --simd= and
/// the cross-level differential tests, which iterate
/// simd::RuntimeAvailableLevels() and compare results at each). Fails —
/// returning false and, when `error` is non-null, a message naming the
/// detected CPU features and the levels this binary can actually run —
/// when the level is not compiled in or the CPU lacks it; the active level
/// is unchanged on failure. Thread-safe; in-flight kernels finish on the
/// table they started with.
bool ForceSimdLevel(simd::Level level, std::string* error = nullptr);

/// True when the active level came from an override (TOUCH_SIMD_LEVEL or
/// ForceSimdLevel) rather than auto-detection. --explain reports it.
bool SimdLevelForced();

/// The *resolved* SIMD level name ("avx2", "sse2", "neon", "scalar") and
/// its float lane count (1 for scalar): what the dispatched kernels
/// actually run right now. The CLI's --explain report and the kernel
/// microbenches record these.
const char* SimdLevelName();
int SimdWidth();
/// False when dispatch resolved to the scalar reference path (no supported
/// vector ISA, or scalar was forced).
bool SimdEnabled();

}  // namespace touch

#endif  // TOUCH_CORE_OVERLAP_KERNEL_H_
