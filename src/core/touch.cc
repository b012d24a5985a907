#include "core/touch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/overlap_kernel.h"
#include "geom/grid.h"
#include "obs/trace.h"
#include "util/memory.h"
#include "util/timer.h"
#include "util/worker_pool.h"

namespace touch {
namespace {

// Average extent per axis over a dataset (used to size local-join grid
// cells, paper section 5.2.2).
Vec3 AverageExtent(std::span<const Box> boxes) {
  if (boxes.empty()) return Vec3(0, 0, 0);
  double sx = 0;
  double sy = 0;
  double sz = 0;
  for (const Box& box : boxes) {
    const Vec3 e = box.Extent();
    sx += e.x;
    sy += e.y;
    sz += e.z;
  }
  const double inv = 1.0 / static_cast<double>(boxes.size());
  return Vec3(static_cast<float>(sx * inv), static_cast<float>(sy * inv),
              static_cast<float>(sz * inv));
}

// Per-axis grid resolution for one inner node: cells no smaller than
// `min_cell_edge` on each axis, capped at `max_resolution` per axis and at
// `max_total_cells` overall (halving resolutions until the product fits).
void NodeGridResolution(const Box& node_mbr, const Vec3& min_cell_edge,
                        int max_resolution, uint64_t max_total_cells,
                        int out_res[3]) {
  const Vec3 extent = node_mbr.Extent();
  const float ext[3] = {extent.x, extent.y, extent.z};
  const float edge[3] = {min_cell_edge.x, min_cell_edge.y, min_cell_edge.z};
  for (int axis = 0; axis < 3; ++axis) {
    int res = max_resolution;
    if (edge[axis] > 0) {
      res = static_cast<int>(ext[axis] / edge[axis]);
    }
    out_res[axis] = std::clamp(res, 1, max_resolution);
  }
  while (static_cast<uint64_t>(out_res[0]) * out_res[1] * out_res[2] >
         max_total_cells) {
    for (int axis = 0; axis < 3; ++axis) {
      out_res[axis] = std::max(1, out_res[axis] / 2);
    }
  }
}

// One grid node's cells in CSR form, reused across the nodes a worker slot
// scatters: the probe ids in cell c are ids[offsets[c], offsets[c + 1]).
// Order invariant: inside a cell the ids keep the node's entity order (the
// order assignment appended them), which is the order the gather kernel
// tests them in and therefore the order pairs are emitted in. Any change to
// this layout must keep it; touch_test pins the resulting pair sequence.
struct CellGrid {
  std::vector<uint32_t> offsets;  // cells + 1 entries
  std::vector<uint32_t> ids;      // one entry per placement
  std::vector<CellRange> ranges;  // scatter scratch: each entity's cells
};

// Calls visit(cell) for every cell index in `range` of a grid whose x and y
// strides are `stride_x` and `stride_y` (z is contiguous).
template <typename Visit>
void ForEachCell(const CellRange& range, uint64_t stride_x, uint64_t stride_y,
                 Visit&& visit) {
  for (int x = range.lo.x; x <= range.hi.x; ++x) {
    for (int y = range.lo.y; y <= range.hi.y; ++y) {
      const uint64_t base = static_cast<uint64_t>(x) * stride_x +
                            static_cast<uint64_t>(y) * stride_y;
      for (int z = range.lo.z; z <= range.hi.z; ++z) {
        visit(base + static_cast<uint64_t>(z));
      }
    }
  }
}

// One thread's local-join scratch, reused across the units it runs. Each
// starts on its own cache line: the hot counters and hit lists of threads
// working side by side must not share one.
struct alignas(64) WorkerContext {
  JoinStats stats;
  CellGrid grid;
  uint64_t grid_placements = 0;  // summed over the nodes this slot scattered
  size_t max_placements = 0;     // largest of those nodes' ids
  uint64_t grid_rows = 0;        // (x, y) rows the item probes visited
  uint64_t grid_rows_empty = 0;  // of those, rows with no occupant
  std::vector<uint32_t> descent_stack;
  std::vector<uint32_t> hits;
};

// A local-join unit's pairs, buffered until every earlier unit has emitted
// (on its own cache line, like WorkerContext).
struct alignas(64) PendingUnit {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::atomic<bool> done{false};
};

// Local-join units: a grid node with at least kSplitItems descendant items
// is probed in chunks of kChunkItems, and units fork in windows of
// kWindowUnits, which also bounds the pairs buffered at once.
constexpr size_t kChunkItems = 2048;
constexpr size_t kSplitItems = 4 * kChunkItems;
constexpr size_t kWindowUnits = 64;

// Assignment classifies probe ids in chunks of kAssignChunk, and the slabs
// are copied in chunks of kSlabChunk boxes; inputs of one chunk run on the
// caller alone.
constexpr size_t kAssignChunk = 8192;
constexpr size_t kSlabChunk = 16384;

// A probe object's node when assignment filtered it or never reached it.
constexpr uint32_t kNoNode = UINT32_MAX;

// Sizes `slab` for `count` boxes and stores fn(i), enlarged by epsilon, in
// fork-join chunks on `pool`'s idle workers.
template <typename BoxFn>
void FillSlab(WorkerPool* pool, HelperSet* helpers, BoxSlab& slab,
              size_t count, BoxFn fn, float epsilon = 0.0f) {
  slab.Resize(count);
  ForkJoin(
      pool, (count + kSlabChunk - 1) / kSlabChunk,
      [&](size_t chunk, size_t /*slot*/) {
        slab.FillGenerated(chunk * kSlabChunk,
                           std::min(count, (chunk + 1) * kSlabChunk), fn,
                           epsilon);
      },
      helpers);
}

}  // namespace

TouchAssignment AssignToTree(const RTree& tree, std::span<const Box> probe,
                             float probe_epsilon,
                             const CancellationToken& cancel,
                             WorkerPool* pool, HelperSet* helpers) {
  const std::span<const RTree::Node> nodes = tree.nodes();
  TouchAssignment out;
  out.entity_offsets.assign(nodes.size() + 1, 0);
  if (nodes.empty()) {
    out.filtered = probe.size();
    return out;
  }
  // Each chunk records every probe object's node (kNoNode once filtered)
  // and counts into its slot; integer sums do not depend on the split.
  struct alignas(64) SlotCounters {
    uint64_t node_comparisons = 0;
    uint64_t filtered = 0;
  };
  std::vector<SlotCounters> counters(ForkJoinSlots(pool));
  std::vector<uint32_t> node_of(probe.size(), kNoNode);
  const Box root_mbr = tree.NodeMbr(tree.root());
  const size_t chunks = (probe.size() + kAssignChunk - 1) / kAssignChunk;
  ForkJoin(
      pool, chunks,
      [&](size_t chunk, size_t slot) {
        SlotCounters& count = counters[slot];
        const size_t end = std::min(probe.size(), (chunk + 1) * kAssignChunk);
        for (size_t probe_id = chunk * kAssignChunk; probe_id < end;
             ++probe_id) {
          // Cooperative cancellation, amortized over a power-of-two stride
          // so the check costs one branch on the hot path.
          if ((probe_id & 2047u) == 0 && cancel.stop_requested()) return;
          const Box box = probe_epsilon > 0
                              ? probe[probe_id].Enlarged(probe_epsilon)
                              : probe[probe_id];
          uint32_t current = tree.root();
          ++count.node_comparisons;
          if (!Intersects(box, root_mbr)) {
            ++count.filtered;
            continue;
          }
          while (!nodes[current].IsLeaf()) {
            // Count children whose MBR overlaps the object; stop at the
            // second (ClassifyOverlaps keeps the scalar loop's early exit
            // and examined count, so node_comparisons stays the paper's
            // metric).
            const RTree::Node& node = nodes[current];
            size_t first = 0;
            const int hits =
                ClassifyOverlaps(tree.node_mbrs(), node.begin,
                                 node.begin + node.count, box, &first,
                                 &count.node_comparisons);
            // Overlaps several children: assigned to their parent (this
            // node).
            if (hits >= 2) break;
            if (hits == 0) {
              // Inside the node's MBR but outside every child: dead space,
              // the object cannot intersect anything in this subtree.
              ++count.filtered;
              current = kNoNode;
              break;
            }
            current = static_cast<uint32_t>(first);
          }
          // A leaf, the node above two overlapping children, or kNoNode.
          node_of[probe_id] = current;
        }
      },
      helpers);
  for (const SlotCounters& count : counters) {
    out.node_comparisons += count.node_comparisons;
    out.filtered += count.filtered;
  }
  // Counting sort by node: count, prefix-sum so offsets[n] is the end of
  // node n, then fill back to front so each node's ids ascend and offsets[n]
  // ends at its start.
  for (const uint32_t node : node_of) {
    if (node != kNoNode) ++out.entity_offsets[node];
  }
  uint32_t sum = 0;
  for (uint32_t& offset : out.entity_offsets) {
    sum += offset;
    offset = sum;
  }
  out.entity_ids.resize(sum);
  for (size_t probe_id = node_of.size(); probe_id-- > 0;) {
    const uint32_t node = node_of[probe_id];
    if (node != kNoNode) {
      out.entity_ids[--out.entity_offsets[node]] =
          static_cast<uint32_t>(probe_id);
    }
  }
  return out;
}

JoinStats TouchJoin::Join(std::span<const Box> a, std::span<const Box> b,
                          ResultCollector& out) {
  bool build_on_a = true;
  switch (options_.join_order) {
    case TouchOptions::JoinOrder::kAuto:
      // The smaller dataset builds the tree: it is sparser (or has a smaller
      // extent), which improves filtering, and the tree is cheaper to build.
      build_on_a = a.size() <= b.size();
      break;
    case TouchOptions::JoinOrder::kBuildOnA:
      build_on_a = true;
      break;
    case TouchOptions::JoinOrder::kBuildOnB:
      build_on_a = false;
      break;
  }
  if (build_on_a) return JoinOriented(a, b, /*swapped=*/false, out);
  return JoinOriented(b, a, /*swapped=*/true, out);
}

JoinStats TouchJoin::JoinWithPrebuiltTree(const RTree& tree,
                                          std::span<const Box> a,
                                          std::span<const Box> b,
                                          ResultCollector& out,
                                          float probe_epsilon,
                                          CancellationToken cancel,
                                          WorkerPool* pool) {
  return JoinOriented(a, b, /*swapped=*/false, out, &tree, probe_epsilon,
                      std::move(cancel), pool);
}

JoinStats TouchJoin::JoinOriented(std::span<const Box> build,
                                  std::span<const Box> probe, bool swapped,
                                  ResultCollector& out,
                                  const RTree* prebuilt,
                                  float probe_epsilon,
                                  CancellationToken cancel,
                                  WorkerPool* pool) {
  JoinStats stats;
  Timer total;
  if (build.empty() || probe.empty()) {
    stats.filtered = probe.size();
    stats.total_seconds = total.Seconds();
    return stats;
  }

  // A library caller asking for several threads gets a pool for this call;
  // the engine passes its own. Either way, phases 1 and 3 borrow only the
  // workers that are idle (WorkerPool::ForkJoin).
  std::optional<WorkerPool> transient_pool;
  if (pool == nullptr) {
    const int hardware =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const int threads = std::clamp(options_.threads, 1, hardware);
    if (threads > 1) pool = &transient_pool.emplace(threads - 1);
  }

  // Assignment and the grid local join enlarge probe boxes as they read
  // them and need no copy; the nested-loop / plane-sweep ablations take raw
  // spans, so for them the enlargement is materialized once (and reported
  // in memory_bytes).
  std::vector<Box> enlarged_probe;
  if (probe_epsilon > 0 &&
      options_.local_join != LocalJoinStrategy::kGrid) {
    enlarged_probe.reserve(probe.size());
    for (const Box& box : probe) {
      enlarged_probe.push_back(box.Enlarged(probe_epsilon));
    }
    probe = enlarged_probe;
    probe_epsilon = 0;
  }
  // ---- Phase 1: tree building (Algorithm 2) — skipped when the caller
  // supplies a prebuilt tree (paper section 4.3). ----
  Timer phase;
  std::optional<RTree> owned_tree;
  if (prebuilt == nullptr) {
    size_t leaf_capacity = options_.leaf_capacity;
    if (leaf_capacity == 0) {
      const size_t partitions = std::max<size_t>(1, options_.partitions);
      leaf_capacity = (build.size() + partitions - 1) / partitions;
    }
    owned_tree.emplace(build, leaf_capacity, options_.fanout,
                       BulkLoadMethod::kStr, pool);
  }
  const RTree& tree = prebuilt != nullptr ? *prebuilt : *owned_tree;
  stats.build_seconds = prebuilt != nullptr ? 0.0 : phase.Seconds();

  // ---- Phase 2: assignment of the probe dataset (Algorithm 3). ----
  phase.Reset();
  // Ambient phase span: attaches under the engine's "execute" span when one
  // is open on this thread, no-op otherwise (library callers untouched).
  SpanScope assign_span("touch-assign");
  HelperSet assign_helpers;
  const TouchAssignment assignment = AssignToTree(
      tree, probe, probe_epsilon, cancel, pool, &assign_helpers);
  stats.node_comparisons += assignment.node_comparisons;
  stats.filtered += assignment.filtered;
  stats.assign_seconds = phase.Seconds();
  assign_span.AddAttr("helpers", std::to_string(assign_helpers.count()));
  assign_span.End();

  // ---- Phase 3: per-node local join (Algorithm 4). ----
  phase.Reset();
  // Opened on this (the owning) thread. Pool helpers run chunks of the
  // phase without an ambient context, so the one span covers the phase's
  // wall clock and its `helpers` attr counts the workers that joined in.
  SpanScope local_join_span("touch-local-join");
  const std::span<const RTree::Node> nodes = tree.nodes();
  const std::span<const uint32_t> item_ids = tree.item_ids();

  // Minimum grid cell edge: a multiple of the average *raw* object extent
  // (the smaller of the two datasets' averages — the enlarged side of a
  // distance join must not dictate the cell size, see TouchOptions).
  const Vec3 avg_build = AverageExtent(build);
  const Vec3 avg_probe = AverageExtent(probe);
  const Vec3 min_cell_edge(
      options_.cell_size_multiplier * std::min(avg_build.x, avg_probe.x),
      options_.cell_size_multiplier * std::min(avg_build.y, avg_probe.y),
      options_.cell_size_multiplier * std::min(avg_build.z, avg_probe.z));

  // Per-slot scratch: slot 0 is this thread, the others are pool helpers.
  std::vector<WorkerContext> contexts(ForkJoinSlots(pool));

  // Slabs for the grid local join, built once per join and shared
  // read-only across threads: the build items in item_ids order (so every
  // leaf's items are one contiguous range) and the probe boxes by probe id
  // with the remaining enlargement folded in (BoxAt round-trips the exact
  // floats assignment classified, so reference-point dedup is unchanged).
  // Like the sweep's sorted copies, this probe scratch stays out of
  // memory_bytes. Both are filled in chunks on the idle workers.
  HelperSet helpers;
  BoxSlab item_slab;
  BoxSlab probe_slab;
  if (options_.local_join == LocalJoinStrategy::kGrid) {
    FillSlab(pool, &helpers, item_slab, item_ids.size(),
             [&](size_t i) { return build[item_ids[i]]; });
    FillSlab(
        pool, &helpers, probe_slab, probe.size(),
        [&](size_t i) { return probe[i]; }, probe_epsilon);
  }

  // How every node with work joins, decided up front in node order. Grid
  // only where it pays: enough entities to amortize building it, and not
  // vastly fewer entities than descendant items (a handful of objects
  // descending a big subtree prunes most of it; a grid would make every
  // item probe cells for nothing). A grid node with many items is split:
  // scattered once, then probed in fixed-size item chunks. Each node's
  // descendant item range is resolved here, once.
  enum class NodeJoin : uint8_t { kDescent, kGrid, kSplitGrid, kAblation };
  struct NodeWork {
    uint32_t node;
    NodeJoin how;
    int res[3];  // grid resolution (kGrid, kSplitGrid)
    RTree::ItemSpan items;
  };
  std::vector<NodeWork> work;
  size_t grid_nodes = 0;
  uint64_t max_grid_cells = 0;  // over grid nodes
  for (uint32_t node_id = 0; node_id < nodes.size(); ++node_id) {
    const size_t entity_count = assignment.Entities(node_id).size();
    if (entity_count == 0) continue;
    const RTree::ItemSpan items = tree.ItemRange(node_id);
    const size_t item_count = items.size();
    if (item_count == 0) continue;
    NodeWork w{node_id, NodeJoin::kAblation, {1, 1, 1}, items};
    if (options_.local_join == LocalJoinStrategy::kGrid) {
      const bool grid_pays = entity_count >= options_.grid_min_entities &&
                             entity_count * 16 >= item_count;
      if (!grid_pays) {
        w.how = NodeJoin::kDescent;
      } else {
        w.how = item_count >= kSplitItems ? NodeJoin::kSplitGrid
                                          : NodeJoin::kGrid;
        NodeGridResolution(tree.NodeMbr(node_id), min_cell_edge,
                           options_.grid_resolution,
                           /*max_total_cells=*/uint64_t{1} << 18, w.res);
        ++grid_nodes;
        max_grid_cells = std::max(max_grid_cells,
                                  static_cast<uint64_t>(w.res[0]) * w.res[1] *
                                      w.res[2]);
      }
    }
    work.push_back(w);
  }

  // Subtree descent for entity-poor nodes: the probe object walks the
  // node's own hierarchy, pruning children by MBR, and is compared only
  // against the items of the leaves it reaches. `emit(build_id, probe_id)`
  // (here and below) handles the swap back to (a, b) order.
  const auto subtree_join = [&](uint32_t start_node, uint32_t probe_id,
                                WorkerContext& ctx, auto&& emit) {
    const Box probe_box = probe_slab.BoxAt(probe_id);
    ctx.descent_stack.clear();
    ctx.descent_stack.push_back(start_node);
    while (!ctx.descent_stack.empty()) {
      const RTree::Node& current = nodes[ctx.descent_stack.back()];
      ctx.descent_stack.pop_back();
      ctx.hits.clear();
      if (current.IsLeaf()) {
        ctx.stats.comparisons +=
            CollectOverlaps(item_slab, current.begin,
                            current.begin + current.count, probe_box,
                            ctx.hits);
        for (const uint32_t pos : ctx.hits) emit(item_ids[pos], probe_id);
        continue;
      }
      // A hit row is the child's node id. Matching children push in
      // ascending order, as the scalar loop did — this stack visits them
      // last-pushed-first either way.
      ctx.stats.node_comparisons +=
          CollectOverlaps(tree.node_mbrs(), current.begin,
                          current.begin + current.count, probe_box, ctx.hits);
      ctx.descent_stack.insert(ctx.descent_stack.end(), ctx.hits.begin(),
                               ctx.hits.end());
    }
  };

  // Equi-width grid over a node's region: the node's B entities are
  // scattered into the cells they overlap by a counting sort ...
  const auto scatter = [&](const NodeWork& w, WorkerContext& ctx) {
    const GridMapper grid(tree.NodeMbr(w.node), w.res[0], w.res[1],
                          w.res[2]);
    const uint64_t stride_y = static_cast<uint64_t>(w.res[2]);
    const uint64_t stride_x = stride_y * static_cast<uint64_t>(w.res[1]);
    const uint64_t cell_count = grid.TotalCells();
    const std::span<const uint32_t> node_entities =
        assignment.Entities(w.node);
    CellGrid& cells = ctx.grid;
    // Each entity's cell range, and the placements they add up to, summed
    // in 64 bits: a node past 32-bit offsets fails here, before any write.
    cells.ranges.clear();
    uint64_t placements = 0;
    for (const uint32_t probe_id : node_entities) {
      cells.ranges.push_back(grid.RangeOf(probe_slab.BoxAt(probe_id)));
      placements += cells.ranges.back().Count();
    }
    if (placements > UINT32_MAX) {
      throw std::length_error(
          "TOUCH local-join grid: node needs more than 2^32-1 placements");
    }
    // Count per cell, then prefix-sum so offsets[c] is the end of cell c.
    cells.offsets.assign(cell_count + 1, 0);
    for (const CellRange& range : cells.ranges) {
      ForEachCell(range, stride_x, stride_y,
                  [&](uint64_t cell) { ++cells.offsets[cell]; });
    }
    for (uint64_t cell = 1; cell < cell_count; ++cell) {
      cells.offsets[cell] += cells.offsets[cell - 1];
    }
    cells.offsets[cell_count] = static_cast<uint32_t>(placements);
    // Fill back to front: pre-decrementing each cell's end lays its ids out
    // in entity order and leaves offsets[c] at the start of cell c.
    cells.ids.resize(placements);
    for (size_t i = node_entities.size(); i-- > 0;) {
      ForEachCell(cells.ranges[i], stride_x, stride_y, [&](uint64_t cell) {
        cells.ids[--cells.offsets[cell]] = node_entities[i];
      });
    }
    ctx.grid_placements += placements;
    ctx.max_placements =
        std::max(ctx.max_placements, static_cast<size_t>(placements));
  };

  // ... then every descendant A object in [item_lo, item_hi) of the node's
  // item range probes the cells it overlaps. A pair straddling several
  // shared cells is reported only by the cell holding its reference point.
  // Reads `cells` only, so chunks of one node can run on several threads.
  const auto probe_grid = [&](const NodeWork& w, const CellGrid& cells,
                              size_t item_lo, size_t item_hi,
                              WorkerContext& ctx, auto&& emit) {
    const auto items = item_ids.subspan(w.items.begin, w.items.size());
    const GridMapper grid(tree.NodeMbr(w.node), w.res[0], w.res[1],
                          w.res[2]);
    const uint64_t stride_y = static_cast<uint64_t>(w.res[2]);
    const uint64_t stride_x = stride_y * static_cast<uint64_t>(w.res[1]);
    for (size_t item_index = item_lo; item_index < item_hi; ++item_index) {
      if ((item_index & 4095u) == 0 && cancel.stop_requested()) return;
      const uint32_t build_id = items[item_index];
      const Box& build_box = build[build_id];
      const CellRange range = grid.RangeOf(build_box);
      for (int x = range.lo.x; x <= range.hi.x; ++x) {
        for (int y = range.lo.y; y <= range.hi.y; ++y) {
          // Cells lo.z..hi.z of this (x, y) row are adjacent in the CSR, so
          // their occupants are one slice: z ascending, each cell's probe
          // ids in entity order. One gather tests the item against the
          // whole slice and counts one comparison per occupant, as the
          // per-cell loop did.
          const uint32_t* row = cells.offsets.data() +
                                static_cast<uint64_t>(x) * stride_x +
                                static_cast<uint64_t>(y) * stride_y;
          const uint32_t begin = row[range.lo.z];
          const uint32_t end = row[range.hi.z + 1];
          ++ctx.grid_rows;
          if (begin == end) {
            ++ctx.grid_rows_empty;
            continue;
          }
          ctx.hits.clear();
          ctx.stats.comparisons += CollectOverlapsGather(
              probe_slab,
              std::span<const uint32_t>(cells.ids).subspan(begin, end - begin),
              build_box, ctx.hits);
          // A probe object spanning several cells of the row occurs once
          // per cell; only its occurrence in the cell holding the pair's
          // reference point emits. That point lies in both boxes and CellOf
          // is monotone, so the cell is one the object occupies in this
          // row: each pair is emitted once, in the per-cell loop's order.
          for (const uint32_t index : ctx.hits) {
            const uint32_t at = begin + index;
            const uint32_t probe_id = cells.ids[at];
            const CellCoord home = grid.CellOf(
                ReferencePoint(build_box, probe_slab.BoxAt(probe_id)));
            if (home.x == x && home.y == y && row[home.z] <= at &&
                at < row[home.z + 1]) {
              emit(build_id, probe_id);
            }
          }
        }
      }
    }
  };

  // Joins one node's assigned probe entities against the build items of
  // its descendant leaves, as one unit.
  const auto join_node = [&](const NodeWork& w, WorkerContext& ctx,
                             auto&& emit) {
    const std::span<const uint32_t> node_entities =
        assignment.Entities(w.node);
    switch (w.how) {
      case NodeJoin::kDescent:
        for (size_t i = 0; i < node_entities.size(); ++i) {
          if ((i & 1023u) == 0 && cancel.stop_requested()) return;
          subtree_join(w.node, node_entities[i], ctx, emit);
        }
        return;
      case NodeJoin::kGrid:
      case NodeJoin::kSplitGrid:
        scatter(w, ctx);
        probe_grid(w, ctx.grid, 0, w.items.size(), ctx, emit);
        return;
      case NodeJoin::kAblation:
        break;
    }
    const auto items = item_ids.subspan(w.items.begin, w.items.size());
    if (options_.local_join == LocalJoinStrategy::kNestedLoop) {
      LocalNestedLoop(build, items, probe, node_entities, &ctx.stats, emit);
    } else {
      LocalPlaneSweep(build, items, probe, node_entities, &ctx.stats, emit);
    }
  };

  // Runs units [0, count) in fork-join windows of kWindowUnits, emitting in
  // unit order — the order of the sequential run. This thread (slot 0)
  // alone calls Emit: a unit it claims at the emission frontier emits
  // straight through; any other unit buffers its pairs in its window
  // position's reused vector, and each finished prefix is flushed whenever
  // this thread is between units. With no idle helper this thread claims
  // every unit at the frontier and buffers nothing; with helpers, at most
  // one window of units is ever buffered.
  std::vector<PendingUnit> window(kWindowUnits);
  const auto oriented = [swapped](uint32_t build_id, uint32_t probe_id) {
    return swapped ? std::pair(probe_id, build_id)
                   : std::pair(build_id, probe_id);
  };
  const auto run_units = [&](size_t count, auto&& run_unit) {
    for (size_t base = 0; base < count; base += kWindowUnits) {
      if (cancel.stop_requested()) return;
      const size_t n = std::min(kWindowUnits, count - base);
      size_t frontier = 0;  // next unit of this window to emit (slot 0 only)
      const auto flush = [&] {
        while (frontier < n &&
               window[frontier].done.load(std::memory_order_acquire)) {
          PendingUnit& pending = window[frontier];
          for (const auto& [a_id, b_id] : pending.pairs) out.Emit(a_id, b_id);
          pending.pairs.clear();
          pending.done.store(false, std::memory_order_relaxed);
          ++frontier;
        }
      };
      ForkJoin(
          pool, n,
          [&](size_t k, size_t slot) {
            WorkerContext& ctx = contexts[slot];
            if (slot == 0 && k == frontier) {
              run_unit(base + k, ctx, [&](uint32_t build_id, uint32_t id) {
                ++ctx.stats.results;
                const auto [a_id, b_id] = oriented(build_id, id);
                out.Emit(a_id, b_id);
              });
              ++frontier;
            } else {
              PendingUnit& pending = window[k];
              run_unit(base + k, ctx, [&](uint32_t build_id, uint32_t id) {
                ++ctx.stats.results;
                pending.pairs.push_back(oriented(build_id, id));
              });
              pending.done.store(true, std::memory_order_release);
            }
            if (slot == 0) flush();
          },
          &helpers);
      flush();
    }
  };

  for (size_t i = 0; i < work.size();) {
    if (cancel.stop_requested()) break;
    if (work[i].how == NodeJoin::kSplitGrid) {
      // One large grid node: scatter it here, then fork its read-only item
      // probes as chunks over this thread's grid.
      const NodeWork& w = work[i];
      scatter(w, contexts[0]);
      const CellGrid& cells = contexts[0].grid;
      const size_t item_count = w.items.size();
      run_units((item_count + kChunkItems - 1) / kChunkItems,
                [&](size_t chunk, WorkerContext& ctx, auto&& emit) {
                  probe_grid(w, cells, chunk * kChunkItems,
                             std::min(item_count, (chunk + 1) * kChunkItems),
                             ctx, emit);
                });
      ++i;
      continue;
    }
    // A run of whole-node units up to the next split node.
    size_t end = i + 1;
    while (end < work.size() && work[end].how != NodeJoin::kSplitGrid) ++end;
    run_units(end - i, [&, i](size_t k, WorkerContext& ctx, auto&& emit) {
      join_node(work[i + k], ctx, emit);
    });
    i = end;
  }
  // The bytes the sequential run's one reused grid ends at: its largest
  // offsets array plus its largest ids array. Maxima over the slots do not
  // depend on how the nodes were spread over threads.
  uint64_t grid_placements = 0;
  uint64_t grid_rows = 0;
  uint64_t grid_rows_empty = 0;
  size_t max_placements = 0;
  for (const WorkerContext& ctx : contexts) {
    stats.MergeCounters(ctx.stats);
    grid_placements += ctx.grid_placements;
    grid_rows += ctx.grid_rows;
    grid_rows_empty += ctx.grid_rows_empty;
    max_placements = std::max(max_placements, ctx.max_placements);
  }
  const size_t grid_bytes =
      grid_nodes == 0
          ? 0
          : (max_grid_cells + 1 + max_placements) * sizeof(uint32_t);
  contexts.clear();  // freeing the grids is part of the phase
  stats.join_seconds = phase.Seconds();
  local_join_span.AddAttr("helpers", std::to_string(helpers.count()));
  local_join_span.AddAttr("grid_nodes", std::to_string(grid_nodes));
  local_join_span.AddAttr("grid_placements", std::to_string(grid_placements));
  local_join_span.AddAttr("grid_rows", std::to_string(grid_rows));
  local_join_span.AddAttr("grid_rows_empty", std::to_string(grid_rows_empty));
  local_join_span.End();

  stats.memory_bytes = tree.MemoryUsageBytes() +
                       VectorBytes(assignment.entity_offsets) +
                       VectorBytes(assignment.entity_ids) + grid_bytes +
                       VectorBytes(enlarged_probe);
  stats.total_seconds = total.Seconds();
  return stats;
}

}  // namespace touch
