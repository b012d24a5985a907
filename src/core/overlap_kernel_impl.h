#ifndef TOUCH_CORE_OVERLAP_KERNEL_IMPL_H_
#define TOUCH_CORE_OVERLAP_KERNEL_IMPL_H_

// Per-ISA kernel bodies for the runtime-dispatched epsilon-overlap kernels.
//
// This header is included by exactly the per-ISA translation units
// (overlap_kernel_{scalar,sse2,avx2,neon}.cc), each of which defines:
//
//   TOUCH_SIMD_TU_LEVEL   the simd::Level value this TU implements (0..3);
//                         selects the intrinsic wrappers in util/simd.h
//   TOUCH_SIMD_TU_TABLE   the internal::KernelTable* getter the TU exports
//
// before the include. Everything here lives in an anonymous namespace, so
// each TU gets its own copies compiled with its own ISA flags (CMake adds
// -mavx2 to the AVX2 TU only); the single exported symbol per TU is the
// table getter at the bottom. TOUCH_SIMD_TU_LEVEL == 0 compiles the scalar
// reference loops — THE semantics every vector level is held to — which
// overlap_kernel_scalar.cc additionally re-exports as the public
// `...Scalar` twins for the differential tests.
//
// Kernel contracts (ascending hit order, scalar-identical comparison
// counts, structural tail masking) are documented on the declarations in
// overlap_kernel.h and verified by tests/overlap_kernel_test.cc at every
// runtime-available level.

#if !defined(TOUCH_SIMD_TU_LEVEL) || !defined(TOUCH_SIMD_TU_TABLE)
#error "overlap_kernel_impl.h is internal to the per-ISA kernel TUs"
#endif

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/overlap_kernel.h"
#include "geom/box.h"
#include "index/rtree.h"
#include "join/algorithm.h"
#include "util/cancellation.h"
#include "util/simd.h"
#include "util/stats.h"

namespace touch {
namespace {

#if TOUCH_SIMD_TU_LEVEL > 0

constexpr uint32_t kFullMask = (1u << simd::kWidth) - 1u;

/// Lanes of the chunk at `base` that are real slab elements (the rest is
/// sentinel padding). Padding is excluded structurally here — not only by
/// the ±inf sentinels — so even a ±inf query box cannot match a pad lane.
inline uint32_t ValidMask(size_t base, size_t end) {
  const size_t remaining = end - base;
  if (remaining >= static_cast<size_t>(simd::kWidth)) return kFullMask;
  return (1u << remaining) - 1u;
}

/// The query box broadcast across all lanes, one vector per bound.
struct QueryVecs {
  simd::FloatVec lo_x, hi_x, lo_y, hi_y, lo_z, hi_z;
};

inline QueryVecs BroadcastQuery(const Box& q) {
  return QueryVecs{simd::Broadcast(q.lo.x), simd::Broadcast(q.hi.x),
                   simd::Broadcast(q.lo.y), simd::Broadcast(q.hi.y),
                   simd::Broadcast(q.lo.z), simd::Broadcast(q.hi.z)};
}

/// Bit i set iff slab[base+i] overlaps the query: six lane-parallel
/// ordered-quiet <= tests ANDed together, collapsed to a bitmask. The exact
/// vector form of Intersects() / SlabOverlapScalar() — NaN in any bound
/// clears the lane, as scalar <= would.
inline uint32_t ChunkMask(const BoxSlab& slab, size_t base,
                          const QueryVecs& q) {
  using simd::CmpLE;
  using simd::LoadUnaligned;
  using simd::MaskAnd;
  simd::MaskVec m = CmpLE(q.lo_x, LoadUnaligned(slab.hi_x() + base));
  m = MaskAnd(m, CmpLE(LoadUnaligned(slab.lo_x() + base), q.hi_x));
  m = MaskAnd(m, CmpLE(q.lo_y, LoadUnaligned(slab.hi_y() + base)));
  m = MaskAnd(m, CmpLE(LoadUnaligned(slab.lo_y() + base), q.hi_y));
  m = MaskAnd(m, CmpLE(q.lo_z, LoadUnaligned(slab.hi_z() + base)));
  m = MaskAnd(m, CmpLE(LoadUnaligned(slab.lo_z() + base), q.hi_z));
  return simd::MoveMask(m);
}

/// Appends base+lane for every set bit, ascending — the same visit order as
/// the scalar loop, one ctz per hit instead of one branch per candidate.
inline void EmitMask(uint32_t mask, size_t base, std::vector<uint32_t>& hits) {
  while (mask != 0) {
    const unsigned lane = static_cast<unsigned>(std::countr_zero(mask));
    hits.push_back(static_cast<uint32_t>(base + lane));
    mask &= mask - 1;
  }
}

#endif  // TOUCH_SIMD_TU_LEVEL > 0

// --- CollectOverlaps ---------------------------------------------------------

#if TOUCH_SIMD_TU_LEVEL > 0

size_t CollectImpl(const BoxSlab& slab, size_t begin, size_t end,
                   const Box& query, std::vector<uint32_t>& hits) {
  const QueryVecs q = BroadcastQuery(query);
  for (size_t base = begin; base < end; base += simd::kWidth) {
    const uint32_t mask = ChunkMask(slab, base, q) & ValidMask(base, end);
    EmitMask(mask, base, hits);
  }
  return end - begin;
}

#else

size_t CollectImpl(const BoxSlab& slab, size_t begin, size_t end,
                   const Box& query, std::vector<uint32_t>& hits) {
  for (size_t i = begin; i < end; ++i) {
    if (SlabOverlapScalar(slab, i, query)) {
      hits.push_back(static_cast<uint32_t>(i));
    }
  }
  return end - begin;
}

#endif

// --- CollectOverlapsUntilBeyondX ---------------------------------------------

#if TOUCH_SIMD_TU_LEVEL > 0

size_t SweepImpl(const BoxSlab& slab, size_t begin, size_t end,
                 const Box& query, std::vector<uint32_t>& hits) {
  const QueryVecs q = BroadcastQuery(query);
  size_t examined = 0;
  for (size_t base = begin; base < end; base += simd::kWidth) {
    const uint32_t valid = ValidMask(base, end);
    // A lane "precedes" when NOT (lo_x > query.hi.x) — the inverted form of
    // the scalar break predicate, so NaN bounds land on the same side. With
    // the range sorted by lo_x the precede set is a prefix; its popcount is
    // exactly the scalar examined-before-break count.
    const uint32_t precede =
        ~simd::MoveMask(simd::CmpGT(simd::LoadUnaligned(slab.lo_x() + base),
                                    q.hi_x)) &
        valid;
    examined += static_cast<size_t>(std::popcount(precede));
    EmitMask(ChunkMask(slab, base, q) & precede, base, hits);
    if (precede != valid) break;
  }
  return examined;
}

#else

size_t SweepImpl(const BoxSlab& slab, size_t begin, size_t end,
                 const Box& query, std::vector<uint32_t>& hits) {
  size_t examined = 0;
  for (size_t i = begin; i < end; ++i) {
    if (slab.lo_x()[i] > query.hi.x) break;
    ++examined;
    if (SlabOverlapScalar(slab, i, query)) {
      hits.push_back(static_cast<uint32_t>(i));
    }
  }
  return examined;
}

#endif

// --- ClassifyOverlaps --------------------------------------------------------

#if TOUCH_SIMD_TU_LEVEL > 0

int ClassifyImpl(const BoxSlab& slab, size_t begin, size_t end,
                 const Box& query, size_t* first, uint64_t* examined) {
  const QueryVecs q = BroadcastQuery(query);
  int found = 0;
  size_t scanned_end = end;
  for (size_t base = begin; base < end && found < 2; base += simd::kWidth) {
    uint32_t mask = ChunkMask(slab, base, q) & ValidMask(base, end);
    while (mask != 0) {
      const size_t idx = base + static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      if (found == 0) {
        *first = idx;
        found = 1;
      } else {
        // Scalar stops examining at the second hit.
        found = 2;
        scanned_end = idx + 1;
        break;
      }
    }
  }
  *examined += found == 2 ? scanned_end - begin : end - begin;
  return found;
}

#else

int ClassifyImpl(const BoxSlab& slab, size_t begin, size_t end,
                 const Box& query, size_t* first, uint64_t* examined) {
  int found = 0;
  for (size_t i = begin; i < end; ++i) {
    ++*examined;
    if (SlabOverlapScalar(slab, i, query)) {
      if (found == 1) return 2;
      *first = i;
      found = 1;
    }
  }
  return found;
}

#endif

// --- CollectOverlapsGather ---------------------------------------------------

#if TOUCH_SIMD_TU_LEVEL == 3

size_t GatherImpl(const BoxSlab& slab, std::span<const uint32_t> positions,
                  const Box& query, std::vector<uint32_t>& hits) {
  // AVX2 has a real vector gather; on SSE2/NEON a manual gather is slower
  // than the scalar loop, so only this level batches the indexed case.
  const QueryVecs q = BroadcastQuery(query);
  const size_t n = positions.size();
  size_t i = 0;
  for (; i + simd::kWidth <= n; i += simd::kWidth) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(positions.data() + i));
    __m256 m = _mm256_cmp_ps(
        q.lo_x, _mm256_i32gather_ps(slab.hi_x(), idx, 4), _CMP_LE_OQ);
    m = _mm256_and_ps(
        m, _mm256_cmp_ps(_mm256_i32gather_ps(slab.lo_x(), idx, 4), q.hi_x,
                         _CMP_LE_OQ));
    m = _mm256_and_ps(
        m, _mm256_cmp_ps(q.lo_y, _mm256_i32gather_ps(slab.hi_y(), idx, 4),
                         _CMP_LE_OQ));
    m = _mm256_and_ps(
        m, _mm256_cmp_ps(_mm256_i32gather_ps(slab.lo_y(), idx, 4), q.hi_y,
                         _CMP_LE_OQ));
    m = _mm256_and_ps(
        m, _mm256_cmp_ps(q.lo_z, _mm256_i32gather_ps(slab.hi_z(), idx, 4),
                         _CMP_LE_OQ));
    m = _mm256_and_ps(
        m, _mm256_cmp_ps(_mm256_i32gather_ps(slab.lo_z(), idx, 4), q.hi_z,
                         _CMP_LE_OQ));
    const uint32_t mask = static_cast<uint32_t>(_mm256_movemask_ps(m));
    EmitMask(mask, i, hits);
  }
  for (; i < n; ++i) {
    if (SlabOverlapScalar(slab, positions[i], query)) {
      hits.push_back(static_cast<uint32_t>(i));
    }
  }
  return n;
}

#else

size_t GatherImpl(const BoxSlab& slab, std::span<const uint32_t> positions,
                  const Box& query, std::vector<uint32_t>& hits) {
  for (size_t i = 0; i < positions.size(); ++i) {
    if (SlabOverlapScalar(slab, positions[i], query)) {
      hits.push_back(static_cast<uint32_t>(i));
    }
  }
  return positions.size();
}

#endif

// --- BatchedTreeProbe --------------------------------------------------------

// One body for every level: the DFS and emit logic are ISA-independent, only
// the CollectImpl it drives is per-TU. Compiled per ISA so the hot probe
// loop inlines its own level's kernel with that level's flags.
uint64_t ProbeImpl(const RTree& tree, const BoxSlab& items,
                   std::span<const Box> queries, float probe_epsilon,
                   bool swap_emit, JoinStats* stats, ResultCollector& out,
                   CancellationToken cancel) {
  const std::span<const RTree::Node> nodes = tree.nodes();
  const BoxSlab& node_mbrs = tree.node_mbrs();
  const std::span<const uint32_t> item_ids = tree.item_ids();
  std::vector<uint32_t> stack;
  std::vector<uint32_t> hits;
  uint64_t probed = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if ((q & 1023u) == 0 && cancel.stop_requested()) break;
    if (!tree.empty()) {
      const Box query = probe_epsilon > 0.0f
                            ? queries[q].Enlarged(probe_epsilon)
                            : queries[q];
      const uint32_t query_id = static_cast<uint32_t>(q);
      stack.clear();
      stack.push_back(tree.root());
      while (!stack.empty()) {
        const RTree::Node& node = nodes[stack.back()];
        stack.pop_back();
        const size_t begin = node.begin;
        const size_t end = begin + node.count;
        hits.clear();
        if (node.IsLeaf()) {
          stats->comparisons += CollectImpl(items, begin, end, query, hits);
          for (const uint32_t pos : hits) {
            const uint32_t item = item_ids[pos];
            if (swap_emit) {
              out.Emit(query_id, item);
            } else {
              out.Emit(item, query_id);
            }
            ++stats->results;
          }
        } else {
          // A hit row of the node MBR slab is the child's node id.
          stats->node_comparisons +=
              CollectImpl(node_mbrs, begin, end, query, hits);
          // Push matching children reversed so they pop in ascending order —
          // the DFS emit order of RTree::Query's recursion.
          for (size_t i = hits.size(); i-- > 0;) stack.push_back(hits[i]);
        }
      }
    }
    ++probed;
  }
  return probed;
}

}  // namespace

namespace internal {

const OverlapKernelTable& TOUCH_SIMD_TU_TABLE() {
  static constexpr OverlapKernelTable table = {
      static_cast<simd::Level>(TOUCH_SIMD_TU_LEVEL),
#if TOUCH_SIMD_TU_LEVEL > 0
      simd::kWidth,
#else
      1,
#endif
      &CollectImpl,
      &SweepImpl,
      &ClassifyImpl,
      &GatherImpl,
      &ProbeImpl,
  };
  return table;
}

}  // namespace internal
}  // namespace touch

#endif  // TOUCH_CORE_OVERLAP_KERNEL_IMPL_H_
