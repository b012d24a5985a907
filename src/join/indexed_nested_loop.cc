#include "join/indexed_nested_loop.h"

#include "core/overlap_kernel.h"
#include "index/rtree.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace touch {

JoinStats IndexedNestedLoopJoin::Join(std::span<const Box> a,
                                      std::span<const Box> b,
                                      ResultCollector& out) {
  JoinStats stats;
  Timer total;
  if (a.empty() || b.empty()) {
    stats.total_seconds = total.Seconds();
    return stats;
  }

  Timer phase;
  const RTree tree(a, options_.leaf_capacity, options_.fanout,
                   options_.bulkload);
  // Gather the tree's items into an SoA slab once, so every probe runs the
  // batched overlap kernel instead of per-box scalar tests. Gathering is
  // index-side work, hence build time; the slab bytes are probe scratch and
  // stay out of memory_bytes, the paper's index-footprint metric (same
  // treatment as the sweep's sorted copies).
  BoxSlab items;
  items.AssignGather(a, tree.item_ids());
  stats.build_seconds = phase.Seconds();
  stats.memory_bytes = tree.MemoryUsageBytes();

  phase.Reset();
  // Ambient kernel span (no-op outside a traced engine request).
  SpanScope probe_span("inl-probe");
  BatchedTreeProbe(tree, items, b, /*probe_epsilon=*/0.0f,
                   /*swap_emit=*/false, &stats, out);
  probe_span.End();
  stats.join_seconds = phase.Seconds();
  stats.total_seconds = total.Seconds();
  return stats;
}

}  // namespace touch
